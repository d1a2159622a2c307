#include "elaborate/elaborate.hpp"

#include "elaborate/lower.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/process_info.hpp"
#include "analysis/widths.hpp"
#include "ir/builder.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "verilog/ast_util.hpp"

namespace rtlrepair::elaborate {

using namespace verilog;
using analysis::ConstEnv;
using analysis::NetRange;
using analysis::ProcessInfo;
using analysis::SymbolTable;
using bv::Value;
using ir::Builder;
using ir::NodeKind;
using ir::NodeRef;

namespace {

constexpr int kMaxInstanceDepth = 16;

// ---------------------------------------------------------------------
// Instance flattening
// ---------------------------------------------------------------------

const Module *
findLibraryModule(const std::vector<const Module *> &library,
                  const std::string &name)
{
    for (const Module *m : library) {
        if (m && m->name == name)
            return m;
    }
    return nullptr;
}

/** Flattens a module hierarchy into a single module. */
class Flattener
{
  public:
    explicit Flattener(const ElaborateOptions &opts) : _opts(opts) {}

    std::unique_ptr<Module>
    run(const Module &top)
    {
        _dest = top.clone();
        // Compile generate blocks, function calls, and memories away
        // before flattening so instance bodies only contain the core
        // subset.
        lowerModule(*_dest, _opts.param_overrides);
        SymbolTable top_table =
            SymbolTable::build(*_dest, _opts.param_overrides);
        std::vector<ItemPtr> original = std::move(_dest->items);
        _dest->items.clear();
        for (auto &item : original) {
            if (item->kind != Item::Kind::Instance) {
                _dest->items.push_back(std::move(item));
                continue;
            }
            flattenInstance(static_cast<const Instance &>(*item),
                            top_table.params(), "", 0);
        }
        return std::move(_dest);
    }

  private:
    void
    flattenInstance(const Instance &inst, const ConstEnv &parent_env,
                    const std::string &parent_prefix, int depth)
    {
        if (depth > kMaxInstanceDepth)
            fatal("instance hierarchy too deep (recursive modules?)");
        const Module *child_src =
            findLibraryModule(_opts.library, inst.module_name);
        if (!child_src)
            fatal("unknown module in instantiation: " + inst.module_name);
        std::string prefix = parent_prefix + inst.instance_name + "__";

        // Resolve parameter overrides for the child.
        ConstEnv overrides;
        if (!inst.params.empty()) {
            std::vector<std::string> param_names;
            for (const auto &item : child_src->items) {
                if (item->kind == Item::Kind::Param) {
                    const auto &p = static_cast<const ParamDecl &>(*item);
                    if (!p.is_local)
                        param_names.push_back(p.name);
                }
            }
            size_t ordered = 0;
            for (const auto &conn : inst.params) {
                if (!conn.expr)
                    continue;
                Value v = analysis::constEval(*conn.expr, parent_env);
                if (!conn.port.empty()) {
                    overrides[conn.port] = v;
                } else {
                    // Malformed instantiations come straight from the
                    // user's source: FatalError, never a panic.
                    if (ordered >= param_names.size())
                        fatal("too many ordered parameter overrides");
                    overrides[param_names[ordered++]] = v;
                }
            }
        }
        // Lower the child under its per-instance parameter bindings:
        // generates may unroll differently for every instantiation.
        std::unique_ptr<Module> lowered = child_src->clone();
        lowerModule(*lowered, overrides);
        const Module *child = lowered.get();
        SymbolTable child_table = SymbolTable::build(*child, overrides);
        const ConstEnv &child_env = child_table.params();

        // Emit renamed copies of the child's items.
        for (const auto &item : child->items) {
            switch (item->kind) {
              case Item::Kind::Param:
                break; // substituted by renameExpr
              case Item::Kind::Net: {
                const auto &n = static_cast<const NetDecl &>(*item);
                auto *decl = new NetDecl();
                decl->id = _dest->newNodeId();
                decl->loc = n.loc;
                decl->name = prefix + n.name;
                decl->net = n.net;
                decl->is_signed = n.is_signed;
                decl->dir = PortDir::Unknown;
                const NetRange &range = child_table.rangeOf(n.name);
                if (range.width > 1 || range.lsb != 0 || n.msb) {
                    decl->msb = makeLiteral(static_cast<uint64_t>(
                        range.lsb + range.width - 1));
                    decl->lsb =
                        makeLiteral(static_cast<uint64_t>(range.lsb));
                }
                _dest->items.emplace_back(decl);
                break;
              }
              case Item::Kind::ContAssign:
              case Item::Kind::Always:
              case Item::Kind::Initial: {
                ItemPtr copy = item->clone();
                renameItem(*copy, prefix, child_env);
                refreshIds(*copy);
                _dest->items.push_back(std::move(copy));
                break;
              }
              case Item::Kind::Instance:
                flattenInstance(static_cast<const Instance &>(*item),
                                child_env, prefix, depth + 1);
                break;
              case Item::Kind::Function:
              case Item::Kind::Genvar:
              case Item::Kind::GenFor:
              case Item::Kind::GenIf:
                panic("generate/function item survived lowering");
            }
        }

        // Connect ports.
        size_t ordered = 0;
        for (const auto &conn : inst.ports) {
            std::string port_name = conn.port;
            if (port_name.empty()) {
                if (ordered >= child->ports.size())
                    fatal("too many ordered port connections");
                port_name = child->ports[ordered++].name;
            }
            PortDir dir = child->portDir(port_name);
            if (dir == PortDir::Unknown) {
                fatal(format("instance '%s': unknown port '%s'",
                             inst.instance_name.c_str(),
                             port_name.c_str()));
            }
            if (!conn.expr)
                continue; // unconnected: child input floats to X
            ExprPtr outer = conn.expr->clone();
            if (!parent_prefix.empty())
                renameExpr(outer, parent_prefix, parent_env);
            auto *assign = new ContAssign();
            assign->id = _dest->newNodeId();
            assign->loc = inst.loc;
            auto *child_net = new IdentExpr(prefix + port_name);
            child_net->id = _dest->newNodeId();
            if (dir == PortDir::Input) {
                assign->lhs = ExprPtr(child_net);
                assign->rhs = std::move(outer);
            } else if (dir == PortDir::Output) {
                assign->lhs = std::move(outer);
                assign->rhs = ExprPtr(child_net);
            } else {
                fatal("inout ports are outside the subset");
            }
            _dest->items.emplace_back(assign);
        }
    }

    ExprPtr
    makeLiteral(uint64_t v)
    {
        auto *lit = new LiteralExpr(Value::fromUint(32, v), false);
        lit->id = _dest->newNodeId();
        return ExprPtr(lit);
    }

    /** Rename idents with @p prefix, substituting parameters. */
    void
    renameExpr(ExprPtr &expr, const std::string &prefix,
               const ConstEnv &env)
    {
        rewriteExprTree(expr, [&](ExprPtr &e) {
            if (e->kind != Expr::Kind::Ident)
                return;
            auto &ident = static_cast<IdentExpr &>(*e);
            auto param = env.find(ident.name);
            if (param != env.end()) {
                auto *lit = new LiteralExpr(param->second, true);
                lit->id = e->id;
                lit->loc = e->loc;
                e.reset(lit);
                return;
            }
            ident.name = prefix + ident.name;
        });
    }

    void
    renameItem(Item &item, const std::string &prefix, const ConstEnv &env)
    {
        switch (item.kind) {
          case Item::Kind::ContAssign: {
            auto &a = static_cast<ContAssign &>(item);
            renameExpr(a.lhs, prefix, env);
            renameExpr(a.rhs, prefix, env);
            return;
          }
          case Item::Kind::Always: {
            auto &blk = static_cast<AlwaysBlock &>(item);
            for (auto &sens : blk.sensitivity) {
                if (!sens.signal.empty())
                    sens.signal = prefix + sens.signal;
            }
            rewriteStmtExprs(blk.body, [&](ExprPtr &e) {
                renameExpr(e, prefix, env);
            });
            return;
          }
          case Item::Kind::Initial: {
            auto &blk = static_cast<InitialBlock &>(item);
            rewriteStmtExprs(blk.body, [&](ExprPtr &e) {
                renameExpr(e, prefix, env);
            });
            return;
          }
          default:
            return;
        }
    }

    /** Give cloned child nodes fresh ids in the parent's space. */
    void
    refreshIds(Item &item)
    {
        item.id = _dest->newNodeId();
        auto fresh_expr = [this](ExprPtr &e) {
            e->id = _dest->newNodeId();
        };
        switch (item.kind) {
          case Item::Kind::ContAssign: {
            auto &a = static_cast<ContAssign &>(item);
            rewriteExprTree(a.lhs, fresh_expr);
            rewriteExprTree(a.rhs, fresh_expr);
            return;
          }
          case Item::Kind::Always: {
            auto &blk = static_cast<AlwaysBlock &>(item);
            rewriteStmtTree(blk.body, [this](StmtPtr &s) {
                s->id = _dest->newNodeId();
            });
            rewriteStmtExprs(blk.body, fresh_expr);
            return;
          }
          case Item::Kind::Initial: {
            auto &blk = static_cast<InitialBlock &>(item);
            rewriteStmtTree(blk.body, [this](StmtPtr &s) {
                s->id = _dest->newNodeId();
            });
            rewriteStmtExprs(blk.body, fresh_expr);
            return;
          }
          default:
            return;
        }
    }

    const ElaborateOptions &_opts;
    std::unique_ptr<Module> _dest;
};

// ---------------------------------------------------------------------
// Elaboration proper
// ---------------------------------------------------------------------

/** Sentinel for "assigned somewhere in the process but not yet". */
constexpr NodeRef kUnassigned = ir::kNullRef;

/** Assigned base names of a statement tree (post-unrolling). */
void
collectAssigned(const Stmt &stmt, std::set<std::string> &out)
{
    switch (stmt.kind) {
      case Stmt::Kind::Block:
        for (const auto &s : static_cast<const BlockStmt &>(stmt).stmts)
            collectAssigned(*s, out);
        return;
      case Stmt::Kind::If: {
        const auto &i = static_cast<const IfStmt &>(stmt);
        collectAssigned(*i.then_stmt, out);
        if (i.else_stmt)
            collectAssigned(*i.else_stmt, out);
        return;
      }
      case Stmt::Kind::Case: {
        const auto &c = static_cast<const CaseStmt &>(stmt);
        for (const auto &item : c.items)
            collectAssigned(*item.body, out);
        if (c.default_body)
            collectAssigned(*c.default_body, out);
        return;
      }
      case Stmt::Kind::Assign: {
        const auto &a = static_cast<const AssignStmt &>(stmt);
        if (a.lhs->kind == Expr::Kind::Concat) {
            for (const auto &part :
                 static_cast<const ConcatExpr &>(*a.lhs).parts) {
                out.insert(analysis::lhsBaseName(*part));
            }
        } else {
            out.insert(analysis::lhsBaseName(*a.lhs));
        }
        return;
      }
      case Stmt::Kind::For:
        collectAssigned(*static_cast<const ForStmt &>(stmt).body, out);
        return;
      case Stmt::Kind::Empty:
        return;
    }
}

/** How a signal is driven. */
enum class DriverKind { Input, State, Comb };

class Elaborator
{
  public:
    Elaborator(const Module &top, const ElaborateOptions &opts)
        : _opts(opts), _builder(top.name)
    {
        Flattener flattener(opts);
        _mod = flattener.run(top);
        _table = SymbolTable::build(*_mod, opts.param_overrides);
        for (const auto &sv : opts.synth_vars) {
            _synth_names.insert(sv.name);
            _table.addNet(sv.name, NetRange{sv.width, 0});
        }
    }

    ir::TransitionSystem
    run()
    {
        classifySignals();
        createInputs();
        createStates();
        createSynthVars();
        elaborateClockedProcesses();
        // Elaborate comb signals that nothing else pulled in.
        for (const auto &[name, kind] : _driver) {
            if (kind == DriverKind::Comb)
                getSignal(name);
        }
        createOutputs();
        nameAllSignals();
        return _builder.finish();
    }

  private:
    // -- signal classification ------------------------------------------

    void
    classifySignals()
    {
        _processes = analysis::analyzeProcesses(*_mod);
        // Unroll for-loops once per process; loop variables are
        // substituted away and must not appear as driven signals.
        for (const auto &proc : _processes) {
            StmtPtr body = proc.block->body->clone();
            analysis::unrollFors(body, _table.params());
            std::set<std::string> assigned;
            collectAssigned(*body, assigned);
            _unrolled.push_back(std::move(body));
            _assigned.push_back(std::move(assigned));
        }

        // Wire aliases (pure `assign a = b;`) for clock resolution.
        for (const auto &item : _mod->items) {
            if (item->kind != Item::Kind::ContAssign)
                continue;
            const auto &a = static_cast<const ContAssign &>(*item);
            if (a.lhs->kind == Expr::Kind::Ident &&
                a.rhs->kind == Expr::Kind::Ident) {
                _alias_sources[static_cast<const IdentExpr &>(*a.lhs)
                                   .name] =
                    static_cast<const IdentExpr &>(*a.rhs).name;
            }
        }

        // Identify the clock.
        std::set<std::string> clock_candidates;
        for (const auto &proc : _processes) {
            if (proc.kind == ProcessInfo::Kind::Clocked)
                clock_candidates.insert(resolveAlias(proc.clock));
        }
        if (clock_candidates.size() > 1) {
            fatal("multiple clock domains are outside the subset: " +
                  join(std::vector<std::string>(clock_candidates.begin(),
                                                clock_candidates.end()),
                       ", "));
        }
        if (!clock_candidates.empty()) {
            _clock = *clock_candidates.begin();
            _clock_aliases = collectAliasesOf(_clock);
        }

        // Driver table.
        for (const auto &port : _mod->ports) {
            if (port.dir == PortDir::Unknown)
                fatal("port without direction: " + port.name);
            if (port.dir == PortDir::Inout)
                fatal("inout ports are outside the subset");
            if (port.dir == PortDir::Input)
                _driver[port.name] = DriverKind::Input;
        }
        for (const auto &item : _mod->items) {
            if (item->kind != Item::Kind::ContAssign)
                continue;
            const auto &a = static_cast<const ContAssign &>(*item);
            std::string name = analysis::lhsBaseName(*a.lhs);
            noteDriver(name, DriverKind::Comb);
            _cont_assigns[name] = &a;
        }
        for (size_t i = 0; i < _processes.size(); ++i) {
            const ProcessInfo &proc = _processes[i];
            DriverKind kind = proc.kind == ProcessInfo::Kind::Clocked
                                  ? DriverKind::State
                                  : DriverKind::Comb;
            for (const auto &name : _assigned[i]) {
                noteDriver(name, kind);
                _defining_process[name] = i;
            }
        }
    }

    void
    noteDriver(const std::string &name, DriverKind kind)
    {
        auto [it, inserted] = _driver.emplace(name, kind);
        if (!inserted) {
            if (it->second == DriverKind::Input)
                fatal("assignment to input port: " + name);
            fatal("signal has multiple drivers: " + name);
        }
    }

    std::string
    resolveAlias(const std::string &name) const
    {
        std::string cur = name;
        for (int i = 0; i < 32; ++i) {
            auto it = _alias_sources.find(cur);
            if (it == _alias_sources.end())
                return cur;
            cur = it->second;
        }
        return cur;
    }

    std::set<std::string>
    collectAliasesOf(const std::string &target) const
    {
        std::set<std::string> out{target};
        for (const auto &[alias, source] : _alias_sources) {
            (void)source;
            if (resolveAlias(alias) == target)
                out.insert(alias);
        }
        return out;
    }

    // -- IR leaf creation --------------------------------------------------

    void
    createInputs()
    {
        for (const auto &port : _mod->ports) {
            if (port.dir != PortDir::Input)
                continue;
            if (port.name == _clock)
                continue; // the clock is implicit in the IR
            _values[port.name] =
                _builder.input(port.name, _table.widthOf(port.name));
        }
    }

    void
    createStates()
    {
        for (size_t i = 0; i < _processes.size(); ++i) {
            if (_processes[i].kind != ProcessInfo::Kind::Clocked)
                continue;
            for (const auto &name : _assigned[i]) {
                if (_values.count(name))
                    continue;
                _values[name] =
                    _builder.state(name, _table.widthOf(name));
            }
        }
        applyInitialBlocks();
    }

    void
    applyInitialBlocks()
    {
        for (const auto &item : _mod->items) {
            if (item->kind != Item::Kind::Initial)
                continue;
            applyInitialStmt(
                *static_cast<const InitialBlock &>(*item).body);
        }
    }

    void
    applyInitialStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block:
            for (const auto &s :
                 static_cast<const BlockStmt &>(stmt).stmts) {
                applyInitialStmt(*s);
            }
            return;
          case Stmt::Kind::Assign: {
            const auto &a = static_cast<const AssignStmt &>(stmt);
            std::string name = analysis::lhsBaseName(*a.lhs);
            auto driver = _driver.find(name);
            if (driver == _driver.end() ||
                driver->second != DriverKind::State) {
                fatal("initial block assigns non-register: " + name);
            }
            Value v = analysis::constEval(*a.rhs, _table.params());
            _builder.setInit(_values.at(name),
                             v.resize(_table.widthOf(name)));
            return;
          }
          case Stmt::Kind::Empty:
            return;
          default:
            fatal("initial blocks may only contain constant register "
                  "assignments");
        }
    }

    void
    createSynthVars()
    {
        for (const auto &sv : _opts.synth_vars) {
            _values[sv.name] =
                _builder.synthVar(sv.name, sv.width, sv.is_phi);
        }
    }

    // -- signal resolution ---------------------------------------------

    NodeRef
    getSignal(const std::string &name)
    {
        auto it = _values.find(name);
        if (it != _values.end())
            return it->second;
        if (_clock_aliases.count(name))
            fatal("clock signal used as data: " + name);

        auto driver = _driver.find(name);
        if (driver == _driver.end()) {
            if (!_table.isNet(name))
                fatal("reference to undeclared signal: " + name);
            logMessage(LogLevel::Info, "undriven signal: " + name);
            NodeRef ref =
                _builder.constant(Value::allX(_table.widthOf(name)));
            _values[name] = ref;
            return ref;
        }

        check(driver->second == DriverKind::Comb,
              "inputs and states are pre-registered");
        if (!_in_progress.insert(name).second)
            fatal("combinational loop through signal: " + name);

        auto cont = _cont_assigns.find(name);
        if (cont != _cont_assigns.end())
            elaborateContAssign(*cont->second);
        else
            elaborateCombProcess(_defining_process.at(name));
        _in_progress.erase(name);
        return _values.at(name);
    }

    void
    elaborateContAssign(const ContAssign &assign)
    {
        std::string name = analysis::lhsBaseName(*assign.lhs);
        uint32_t width = _table.widthOf(name);
        if (assign.lhs->kind != Expr::Kind::Ident) {
            fatal("continuous assignment to a bit/part select is "
                  "outside the subset: " +
                  name);
        }
        NodeRef rhs = elabExpr(*assign.rhs, nullptr, width);
        _values[name] = _builder.resize(rhs, width);
    }

    // -- process execution -----------------------------------------------

    /** Blocking-visible and non-blocking environments of a process. */
    struct Env
    {
        std::map<std::string, NodeRef> current;
        std::map<std::string, NodeRef> nba;
    };

    void
    elaborateCombProcess(size_t proc_index)
    {
        if (_comb_done.count(proc_index))
            return;
        const Stmt &body = *_unrolled[proc_index];

        Env env;
        for (const auto &name : _assigned[proc_index])
            env.current[name] = kUnassigned;

        execStmt(body, env);

        for (const auto &name : _assigned[proc_index]) {
            NodeRef val = env.current.at(name);
            if (val == kUnassigned)
                val = latchX(name);
            _values[name] = val;
        }
        _comb_done.insert(proc_index);
    }

    void
    elaborateClockedProcesses()
    {
        for (size_t i = 0; i < _processes.size(); ++i) {
            const ProcessInfo &proc = _processes[i];
            if (proc.kind != ProcessInfo::Kind::Clocked)
                continue;
            if (proc.edge_signals.size() > 1) {
                logMessage(LogLevel::Warn,
                           "async set/reset edges converted to "
                           "synchronous semantics in " +
                               _mod->name);
            }

            const Stmt &body = *_unrolled[i];

            std::map<std::string, bool> uses_nba;
            scanAssignKinds(body, uses_nba);

            Env env;
            for (const auto &[name, nba] : uses_nba) {
                NodeRef state = _values.at(name);
                if (nba)
                    env.nba[name] = state;
                else
                    env.current[name] = state;
            }

            execStmt(body, env);

            for (const auto &[name, nba] : uses_nba) {
                NodeRef next =
                    nba ? env.nba.at(name) : env.current.at(name);
                _builder.setNext(_values.at(name), next);
            }
        }
    }

    void
    scanAssignKinds(const Stmt &stmt,
                    std::map<std::string, bool> &uses_nba)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block:
            for (const auto &s :
                 static_cast<const BlockStmt &>(stmt).stmts) {
                scanAssignKinds(*s, uses_nba);
            }
            return;
          case Stmt::Kind::If: {
            const auto &i = static_cast<const IfStmt &>(stmt);
            scanAssignKinds(*i.then_stmt, uses_nba);
            if (i.else_stmt)
                scanAssignKinds(*i.else_stmt, uses_nba);
            return;
          }
          case Stmt::Kind::Case: {
            const auto &c = static_cast<const CaseStmt &>(stmt);
            for (const auto &item : c.items)
                scanAssignKinds(*item.body, uses_nba);
            if (c.default_body)
                scanAssignKinds(*c.default_body, uses_nba);
            return;
          }
          case Stmt::Kind::Assign: {
            const auto &a = static_cast<const AssignStmt &>(stmt);
            if (a.lhs->kind == Expr::Kind::Concat) {
                for (const auto &part :
                     static_cast<const ConcatExpr &>(*a.lhs).parts) {
                    noteAssignKind(analysis::lhsBaseName(*part),
                                   !a.blocking, uses_nba);
                }
            } else {
                noteAssignKind(analysis::lhsBaseName(*a.lhs),
                               !a.blocking, uses_nba);
            }
            return;
          }
          default:
            return;
        }
    }

    void
    noteAssignKind(const std::string &name, bool nba,
                   std::map<std::string, bool> &uses_nba)
    {
        auto [it, inserted] = uses_nba.emplace(name, nba);
        if (!inserted && it->second != nba) {
            fatal("signal assigned with both blocking and non-blocking "
                  "assignments: " +
                  name);
        }
    }

    void
    execStmt(const Stmt &stmt, Env &env)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block:
            for (const auto &s :
                 static_cast<const BlockStmt &>(stmt).stmts) {
                execStmt(*s, env);
            }
            return;
          case Stmt::Kind::If: {
            const auto &i = static_cast<const IfStmt &>(stmt);
            NodeRef cond = _builder.truthy(elabExpr(*i.cond, &env, 0));
            Env then_env = env;
            Env else_env = env;
            execStmt(*i.then_stmt, then_env);
            if (i.else_stmt)
                execStmt(*i.else_stmt, else_env);
            mergeEnvs(cond, then_env, else_env, env);
            return;
          }
          case Stmt::Kind::Case:
            execCase(static_cast<const CaseStmt &>(stmt), env);
            return;
          case Stmt::Kind::Assign: {
            const auto &a = static_cast<const AssignStmt &>(stmt);
            execAssign(a, env);
            return;
          }
          case Stmt::Kind::Empty:
            return;
          case Stmt::Kind::For:
            panic("for-loops must be unrolled before execution");
        }
    }

    void
    execCase(const CaseStmt &c, Env &env)
    {
        // Context width: subject and labels harmonize.
        uint32_t ctx = analysis::exprWidth(*c.subject, _table);
        for (const auto &item : c.items) {
            for (const auto &label : item.labels)
                ctx = std::max(ctx, analysis::exprWidth(*label, _table));
        }
        NodeRef subject =
            _builder.resize(elabExpr(*c.subject, &env, ctx), ctx);

        struct Arm
        {
            NodeRef cond;
            const Stmt *body;
        };
        std::vector<Arm> arms;
        std::set<uint64_t> label_values;
        bool labels_const = true;
        for (const auto &item : c.items) {
            NodeRef cond = ir::kNullRef;
            for (const auto &label : item.labels) {
                NodeRef one =
                    caseLabelMatch(subject, ctx, *label, c.mode, env);
                cond = cond == ir::kNullRef
                           ? one
                           : _builder.binary(NodeKind::Or, cond, one);
                auto lit =
                    analysis::tryConstEval(*label, _table.params());
                if (lit && !lit->hasX() && lit->width() <= 64) {
                    label_values.insert(lit->toUint64());
                } else {
                    labels_const = false;
                }
            }
            arms.push_back(Arm{cond, item.body.get()});
        }

        // Full-case detection: a plain case with constant labels that
        // cover the whole subject range needs no default (synthesis
        // treats the last arm as the catch-all).
        bool full_case = false;
        if (!c.default_body && c.mode == CaseStmt::Mode::Plain &&
            labels_const && ctx <= 20 && !arms.empty()) {
            full_case = label_values.size() == (1ull << ctx);
        }

        Env result = env;
        size_t chain_end = arms.size();
        if (c.default_body) {
            execStmt(*c.default_body, result);
        } else if (full_case) {
            execStmt(*arms.back().body, result);
            chain_end = arms.size() - 1;
        }
        for (size_t i = chain_end; i-- > 0;) {
            Env arm_env = env;
            execStmt(*arms[i].body, arm_env);
            Env merged;
            mergeEnvs(arms[i].cond, arm_env, result, merged);
            result = std::move(merged);
        }
        env = std::move(result);
    }

    NodeRef
    caseLabelMatch(NodeRef subject, uint32_t sw, const Expr &label,
                   CaseStmt::Mode mode, Env &env)
    {
        auto lit = analysis::tryConstEval(label, _table.params());
        if (lit && lit->hasX() && mode != CaseStmt::Mode::Plain) {
            // Wildcard bits: compare only the known label bits.
            Value mask = Value::zeros(sw);
            Value bits = Value::zeros(sw);
            for (uint32_t i = 0; i < sw && i < lit->width(); ++i) {
                int b = lit->bit(i);
                if (b >= 0) {
                    mask.setBit(i, 1);
                    bits.setBit(i, b);
                }
            }
            NodeRef masked = _builder.binary(NodeKind::And, subject,
                                             _builder.constant(mask));
            return _builder.binary(NodeKind::Eq, masked,
                                   _builder.constant(bits));
        }
        NodeRef value = elabExpr(label, &env, sw);
        return _builder.binary(NodeKind::Eq, subject,
                               _builder.resize(value, sw));
    }

    void
    mergeEnvs(NodeRef cond, const Env &then_env, const Env &else_env,
              Env &out)
    {
        Env merged;
        mergeMaps(cond, then_env.current, else_env.current,
                  merged.current);
        mergeMaps(cond, then_env.nba, else_env.nba, merged.nba);
        out = std::move(merged);
    }

    void
    mergeMaps(NodeRef cond, const std::map<std::string, NodeRef> &t,
              const std::map<std::string, NodeRef> &e,
              std::map<std::string, NodeRef> &out)
    {
        for (const auto &[name, tv] : t) {
            auto it = e.find(name);
            NodeRef ev = it != e.end() ? it->second : kUnassigned;
            if (tv == ev) {
                out[name] = tv;
            } else if (tv == kUnassigned) {
                out[name] = _builder.ite(cond, latchX(name), ev);
            } else if (ev == kUnassigned) {
                out[name] = _builder.ite(cond, tv, latchX(name));
            } else {
                out[name] = _builder.ite(cond, tv, ev);
            }
        }
        for (const auto &[name, ev] : e) {
            if (!t.count(name))
                out[name] = ev;
        }
    }

    NodeRef
    latchX(const std::string &name)
    {
        if (!_opts.allow_latches) {
            fatal("latch inferred for signal (not synthesizable): " +
                  name);
        }
        return _builder.constant(Value::allX(_table.widthOf(name)));
    }

    void
    execAssign(const AssignStmt &a, Env &env)
    {
        if (a.lhs->kind == Expr::Kind::Concat) {
            // {hi, ..., lo} = rhs: the last part takes the low bits.
            const auto &c = static_cast<const ConcatExpr &>(*a.lhs);
            uint32_t total = 0;
            std::vector<uint32_t> widths;
            for (const auto &part : c.parts) {
                uint32_t w = lhsWidth(*part);
                widths.push_back(w);
                total += w;
            }
            NodeRef rhs =
                _builder.resize(elabExpr(*a.rhs, &env, total), total);
            uint32_t off = total;
            for (size_t i = 0; i < c.parts.size(); ++i) {
                off -= widths[i];
                NodeRef piece =
                    _builder.slice(rhs, off + widths[i] - 1, off);
                assignTo(*c.parts[i], piece, env, a.blocking);
            }
            return;
        }
        uint32_t ctx = lhsWidth(*a.lhs);
        NodeRef rhs = elabExpr(*a.rhs, &env, ctx);
        assignTo(*a.lhs, rhs, env, a.blocking);
    }

    /** Width of an assignment target (for RHS context sizing). */
    uint32_t
    lhsWidth(const Expr &lhs)
    {
        switch (lhs.kind) {
          case Expr::Kind::Ident:
            return _table.widthOf(
                static_cast<const IdentExpr &>(lhs).name);
          case Expr::Kind::Index:
            return 1;
          case Expr::Kind::RangeSelect: {
            const auto &r = static_cast<const RangeSelectExpr &>(lhs);
            int64_t msb = analysis::constEvalInt(*r.msb, _table.params());
            int64_t lsb = analysis::constEvalInt(*r.lsb, _table.params());
            return static_cast<uint32_t>(std::llabs(msb - lsb)) + 1u;
          }
          default:
            fatal("unsupported assignment target");
        }
    }

    void
    assignTo(const Expr &lhs, NodeRef rhs, Env &env, bool blocking)
    {
        std::string name = analysis::lhsBaseName(lhs);
        auto &target_map = blocking ? env.current : env.nba;
        auto slot = target_map.find(name);
        if (slot == target_map.end()) {
            // Mixed-kind in a comb process: fall back to blocking.
            slot = env.current.find(name);
            check(slot != env.current.end(),
                  "assignment to signal not tracked by process env: " +
                      name);
        }
        uint32_t width = _table.widthOf(name);

        NodeRef old_val = slot->second;
        if (old_val == kUnassigned && lhs.kind != Expr::Kind::Ident)
            old_val = latchX(name);

        slot->second = buildLhsWrite(lhs, old_val, rhs, width, env);
    }

    NodeRef
    buildLhsWrite(const Expr &lhs, NodeRef old_val, NodeRef rhs,
                  uint32_t width, Env &env)
    {
        switch (lhs.kind) {
          case Expr::Kind::Ident:
            return _builder.resize(rhs, width);
          case Expr::Kind::Index: {
            const auto &ix = static_cast<const IndexExpr &>(lhs);
            std::string base = analysis::lhsBaseName(*ix.base);
            int64_t lsb_off = _table.rangeOf(base).lsb;
            auto const_idx =
                analysis::tryConstEval(*ix.index, _table.params());
            NodeRef bit = _builder.resize(rhs, 1);
            if (const_idx && !const_idx->hasX()) {
                int64_t pos =
                    static_cast<int64_t>(const_idx->toUint64()) -
                    lsb_off;
                if (pos < 0 || pos >= static_cast<int64_t>(width)) {
                    logMessage(LogLevel::Warn,
                               "out-of-range constant bit write to " +
                                   base);
                    return old_val;
                }
                return splicePart(old_val, bit,
                                  static_cast<uint32_t>(pos), width);
            }
            NodeRef idx =
                _builder.resize(elabExpr(*ix.index, &env, 0), width);
            if (lsb_off != 0) {
                idx = _builder.binary(
                    NodeKind::Sub, idx,
                    _builder.constantUint(
                        width, static_cast<uint64_t>(lsb_off)));
            }
            NodeRef one = _builder.constantUint(width, 1);
            NodeRef mask = _builder.binary(NodeKind::Shl, one, idx);
            NodeRef cleared = _builder.binary(NodeKind::And, old_val,
                                              _builder.notOf(mask));
            NodeRef shifted = _builder.binary(
                NodeKind::Shl, _builder.zext(bit, width), idx);
            return _builder.binary(NodeKind::Or, cleared, shifted);
          }
          case Expr::Kind::RangeSelect: {
            const auto &r = static_cast<const RangeSelectExpr &>(lhs);
            std::string base = analysis::lhsBaseName(*r.base);
            int64_t lsb_off = _table.rangeOf(base).lsb;
            int64_t msb =
                analysis::constEvalInt(*r.msb, _table.params()) -
                lsb_off;
            int64_t lsb =
                analysis::constEvalInt(*r.lsb, _table.params()) -
                lsb_off;
            if (msb < lsb)
                std::swap(msb, lsb);
            // Out-of-range selects are written by the user, not by
            // the tool: FatalError, never a panic.
            if (!(lsb >= 0 && msb < static_cast<int64_t>(width)))
                fatal("part-select write out of range on " + base);
            uint32_t part_w = static_cast<uint32_t>(msb - lsb + 1);
            NodeRef part = _builder.resize(rhs, part_w);
            return splicePart(old_val, part,
                              static_cast<uint32_t>(lsb), width);
          }
          default:
            fatal("unsupported assignment target");
        }
    }

    /** Replace bits [pos +: width(part)] of old_val with part. */
    NodeRef
    splicePart(NodeRef old_val, NodeRef part, uint32_t pos,
               uint32_t width)
    {
        uint32_t pw = _builder.widthOf(part);
        check(pos + pw <= width, "splice out of range");
        NodeRef result = part;
        if (pos > 0) {
            NodeRef low = _builder.slice(old_val, pos - 1, 0);
            result = _builder.concat(result, low);
        }
        if (pos + pw < width) {
            NodeRef high = _builder.slice(old_val, width - 1, pos + pw);
            result = _builder.concat(high, result);
        }
        return result;
    }

    // -- expressions ------------------------------------------------------

    NodeRef
    readSignal(const std::string &name, Env *env)
    {
        if (env) {
            auto it = env->current.find(name);
            if (it != env->current.end()) {
                if (it->second == kUnassigned) {
                    fatal("signal read before assignment in "
                          "combinational process (latch/loop): " +
                          name);
                }
                return it->second;
            }
        }
        auto param = _table.params().find(name);
        if (param != _table.params().end())
            return _builder.constant(param->second);
        return getSignal(name);
    }

    /**
     * Elaborate an expression.  @p ctx is the context width (0 for
     * self-determined); arithmetic and bitwise operators compute at
     * max(operand widths, ctx), reproducing Verilog's
     * context-determined sizing so carries and shifts behave like a
     * real simulator.
     */
    NodeRef
    elabExpr(const Expr &expr, Env *env, uint32_t ctx)
    {
        switch (expr.kind) {
          case Expr::Kind::Ident:
            return readSignal(static_cast<const IdentExpr &>(expr).name,
                              env);
          case Expr::Kind::Literal:
            return _builder.constant(
                static_cast<const LiteralExpr &>(expr).value);
          case Expr::Kind::Call:
            panic("function call survived lowering");
          case Expr::Kind::Unary: {
            const auto &u = static_cast<const UnaryExpr &>(expr);
            switch (u.op) {
              case UnaryOp::BitNot: {
                NodeRef v = elabExpr(*u.operand, env, ctx);
                if (ctx > _builder.widthOf(v))
                    v = _builder.resize(v, ctx);
                return _builder.notOf(v);
              }
              case UnaryOp::LogicNot:
                return _builder.notOf(
                    _builder.truthy(elabExpr(*u.operand, env, 0)));
              case UnaryOp::Minus: {
                NodeRef v = elabExpr(*u.operand, env, ctx);
                if (ctx > _builder.widthOf(v))
                    v = _builder.resize(v, ctx);
                return _builder.unary(NodeKind::Neg, v);
              }
              case UnaryOp::Plus:
                return elabExpr(*u.operand, env, ctx);
              case UnaryOp::RedAnd:
                return _builder.unary(NodeKind::RedAnd,
                                      elabExpr(*u.operand, env, 0));
              case UnaryOp::RedOr:
                return _builder.unary(NodeKind::RedOr,
                                      elabExpr(*u.operand, env, 0));
              case UnaryOp::RedXor:
                return _builder.unary(NodeKind::RedXor,
                                      elabExpr(*u.operand, env, 0));
              case UnaryOp::RedNand:
                return _builder.notOf(_builder.unary(
                    NodeKind::RedAnd, elabExpr(*u.operand, env, 0)));
              case UnaryOp::RedNor:
                return _builder.notOf(_builder.unary(
                    NodeKind::RedOr, elabExpr(*u.operand, env, 0)));
              case UnaryOp::RedXnor:
                return _builder.notOf(_builder.unary(
                    NodeKind::RedXor, elabExpr(*u.operand, env, 0)));
            }
            panic("bad unary op");
          }
          case Expr::Kind::Binary:
            return elabBinary(static_cast<const BinaryExpr &>(expr), env,
                              ctx);
          case Expr::Kind::Ternary: {
            const auto &t = static_cast<const TernaryExpr &>(expr);
            NodeRef cond = _builder.truthy(elabExpr(*t.cond, env, 0));
            NodeRef a = elabExpr(*t.then_expr, env, ctx);
            NodeRef b = elabExpr(*t.else_expr, env, ctx);
            uint32_t w = std::max(
                {_builder.widthOf(a), _builder.widthOf(b), ctx});
            return _builder.ite(cond, _builder.resize(a, w),
                                _builder.resize(b, w));
          }
          case Expr::Kind::Concat: {
            const auto &c = static_cast<const ConcatExpr &>(expr);
            NodeRef acc = ir::kNullRef;
            for (const auto &part : c.parts) {
                NodeRef v = elabExpr(*part, env, 0);
                acc = acc == ir::kNullRef ? v : _builder.concat(acc, v);
            }
            if (acc == ir::kNullRef)
                fatal("empty concatenation");
            return acc;
          }
          case Expr::Kind::Repl: {
            const auto &r = static_cast<const ReplExpr &>(expr);
            int64_t count =
                analysis::constEvalInt(*r.count, _table.params());
            if (count <= 0)
                fatal("non-positive replication count");
            NodeRef inner = elabExpr(*r.inner, env, 0);
            NodeRef acc = inner;
            for (int64_t i = 1; i < count; ++i)
                acc = _builder.concat(acc, inner);
            return acc;
          }
          case Expr::Kind::Index: {
            const auto &ix = static_cast<const IndexExpr &>(expr);
            NodeRef base = elabExpr(*ix.base, env, 0);
            uint32_t bw = _builder.widthOf(base);
            int64_t lsb_off = 0;
            if (ix.base->kind == Expr::Kind::Ident) {
                const auto &name =
                    static_cast<const IdentExpr &>(*ix.base).name;
                if (_table.isNet(name))
                    lsb_off = _table.rangeOf(name).lsb;
            }
            auto const_idx =
                analysis::tryConstEval(*ix.index, _table.params());
            if (const_idx && !const_idx->hasX()) {
                int64_t pos =
                    static_cast<int64_t>(const_idx->toUint64()) -
                    lsb_off;
                if (pos < 0 || pos >= static_cast<int64_t>(bw)) {
                    // Out-of-bounds reads yield X in Verilog.
                    return _builder.constant(Value::allX(1));
                }
                return _builder.slice(base, static_cast<uint32_t>(pos),
                                      static_cast<uint32_t>(pos));
            }
            NodeRef idx =
                _builder.resize(elabExpr(*ix.index, env, 0), bw);
            if (lsb_off != 0) {
                idx = _builder.binary(
                    NodeKind::Sub, idx,
                    _builder.constantUint(
                        bw, static_cast<uint64_t>(lsb_off)));
            }
            NodeRef shifted = _builder.binary(NodeKind::LShr, base, idx);
            return _builder.slice(shifted, 0, 0);
          }
          case Expr::Kind::RangeSelect: {
            const auto &r = static_cast<const RangeSelectExpr &>(expr);
            NodeRef base = elabExpr(*r.base, env, 0);
            int64_t lsb_off = 0;
            if (r.base->kind == Expr::Kind::Ident) {
                const auto &name =
                    static_cast<const IdentExpr &>(*r.base).name;
                if (_table.isNet(name))
                    lsb_off = _table.rangeOf(name).lsb;
            }
            int64_t msb =
                analysis::constEvalInt(*r.msb, _table.params()) -
                lsb_off;
            int64_t lsb =
                analysis::constEvalInt(*r.lsb, _table.params()) -
                lsb_off;
            if (msb < lsb)
                std::swap(msb, lsb);
            uint32_t bw = _builder.widthOf(base);
            if (!(lsb >= 0 && msb < static_cast<int64_t>(bw)))
                fatal("part-select read out of range");
            return _builder.slice(base, static_cast<uint32_t>(msb),
                                  static_cast<uint32_t>(lsb));
          }
        }
        panic("unknown expression kind");
    }

    NodeRef
    elabBinary(const BinaryExpr &b, Env *env, uint32_t ctx)
    {
        // Comparison operands size each other (their own context).
        auto cmpCtx = [&]() {
            return std::max(analysis::exprWidth(*b.lhs, _table),
                            analysis::exprWidth(*b.rhs, _table));
        };

        switch (b.op) {
          case BinaryOp::LogicAnd:
            return _builder.binary(
                NodeKind::And,
                _builder.truthy(elabExpr(*b.lhs, env, 0)),
                _builder.truthy(elabExpr(*b.rhs, env, 0)));
          case BinaryOp::LogicOr:
            return _builder.binary(
                NodeKind::Or,
                _builder.truthy(elabExpr(*b.lhs, env, 0)),
                _builder.truthy(elabExpr(*b.rhs, env, 0)));
          case BinaryOp::Lt:
          case BinaryOp::Le:
          case BinaryOp::Gt:
          case BinaryOp::Ge:
          case BinaryOp::Eq:
          case BinaryOp::Ne:
          case BinaryOp::CaseEq:
          case BinaryOp::CaseNe: {
            uint32_t w = cmpCtx();
            NodeRef lhs =
                _builder.resize(elabExpr(*b.lhs, env, w), w);
            NodeRef rhs =
                _builder.resize(elabExpr(*b.rhs, env, w), w);
            switch (b.op) {
              case BinaryOp::Lt:
                return _builder.binary(NodeKind::Ult, lhs, rhs);
              case BinaryOp::Le:
                return _builder.binary(NodeKind::Ule, lhs, rhs);
              case BinaryOp::Gt:
                return _builder.binary(NodeKind::Ult, rhs, lhs);
              case BinaryOp::Ge:
                return _builder.binary(NodeKind::Ule, rhs, lhs);
              case BinaryOp::Eq:
              case BinaryOp::CaseEq:
                return _builder.binary(NodeKind::Eq, lhs, rhs);
              default:
                return _builder.notOf(
                    _builder.binary(NodeKind::Eq, lhs, rhs));
            }
          }
          case BinaryOp::Shl:
          case BinaryOp::Shr:
          case BinaryOp::AShr: {
            NodeRef lhs = elabExpr(*b.lhs, env, ctx);
            uint32_t w = std::max(_builder.widthOf(lhs), ctx);
            lhs = _builder.resize(lhs, w);
            NodeRef amount =
                _builder.resize(elabExpr(*b.rhs, env, 0), w);
            NodeKind kind = b.op == BinaryOp::Shl ? NodeKind::Shl
                            : b.op == BinaryOp::Shr ? NodeKind::LShr
                                                    : NodeKind::AShr;
            return _builder.binary(kind, lhs, amount);
          }
          default:
            break;
        }

        // Arithmetic / bitwise: context-determined width.
        NodeRef lhs = elabExpr(*b.lhs, env, ctx);
        NodeRef rhs = elabExpr(*b.rhs, env, ctx);
        uint32_t w = std::max(
            {_builder.widthOf(lhs), _builder.widthOf(rhs), ctx});
        lhs = _builder.resize(lhs, w);
        rhs = _builder.resize(rhs, w);
        switch (b.op) {
          case BinaryOp::Add:
            return _builder.binary(NodeKind::Add, lhs, rhs);
          case BinaryOp::Sub:
            return _builder.binary(NodeKind::Sub, lhs, rhs);
          case BinaryOp::Mul:
            return _builder.binary(NodeKind::Mul, lhs, rhs);
          case BinaryOp::Div:
            return _builder.binary(NodeKind::UDiv, lhs, rhs);
          case BinaryOp::Mod:
            return _builder.binary(NodeKind::URem, lhs, rhs);
          case BinaryOp::BitAnd:
            return _builder.binary(NodeKind::And, lhs, rhs);
          case BinaryOp::BitOr:
            return _builder.binary(NodeKind::Or, lhs, rhs);
          case BinaryOp::BitXor:
            return _builder.binary(NodeKind::Xor, lhs, rhs);
          case BinaryOp::BitXnor:
            return _builder.notOf(
                _builder.binary(NodeKind::Xor, lhs, rhs));
          default:
            panic("unhandled binary op");
        }
    }

    // -- outputs -----------------------------------------------------------

    void
    createOutputs()
    {
        for (const auto &port : _mod->ports) {
            if (port.dir != PortDir::Output)
                continue;
            _builder.addOutput(port.name, getSignal(port.name));
        }
    }

    void
    nameAllSignals()
    {
        for (const auto &[name, ref] : _values) {
            if (_synth_names.count(name))
                continue;
            _builder.nameSignal(name, ref);
        }
    }

    const ElaborateOptions &_opts;
    std::unique_ptr<Module> _mod;
    SymbolTable _table;
    Builder _builder;

    std::vector<ProcessInfo> _processes;
    std::vector<StmtPtr> _unrolled;
    std::vector<std::set<std::string>> _assigned;
    std::map<std::string, DriverKind> _driver;
    std::map<std::string, const ContAssign *> _cont_assigns;
    std::map<std::string, size_t> _defining_process;
    std::map<std::string, std::string> _alias_sources;
    std::map<std::string, NodeRef> _values;
    std::set<std::string> _synth_names;
    std::set<std::string> _in_progress;
    std::set<size_t> _comb_done;
    std::set<std::string> _clock_aliases;
    std::string _clock;
};

} // namespace

// Unstable: template-task elaborations run on pool workers, and a
// cancelled task may or may not have elaborated before it stopped.
static telemetry::Counter s_elab_runs("elaborate.runs",
                                      telemetry::MetricKind::Unstable);
static telemetry::Counter s_elab_states("elaborate.states",
                                        telemetry::MetricKind::Unstable);

ir::TransitionSystem
elaborate(const Module &top, const ElaborateOptions &opts)
{
    telemetry::Span span("elaborate.ir");
    s_elab_runs.add(1);
    Elaborator elab(top, opts);
    ir::TransitionSystem sys = elab.run();
    s_elab_states.add(sys.states.size());
    return sys;
}

std::unique_ptr<Module>
flattenHierarchy(const Module &top, const ElaborateOptions &opts)
{
    Flattener flattener(opts);
    return flattener.run(top);
}

ir::TransitionSystem
elaborate(const SourceFile &file, const ElaborateOptions &opts)
{
    ElaborateOptions with_library = opts;
    for (const auto &m : file.modules) {
        if (m.get() != &file.top())
            with_library.library.push_back(m.get());
    }
    return elaborate(file.top(), with_library);
}

} // namespace rtlrepair::elaborate
