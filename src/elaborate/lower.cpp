#include "elaborate/lower.hpp"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/strings.hpp"
#include "verilog/ast_util.hpp"

namespace rtlrepair::elaborate {

using namespace verilog;
using analysis::ConstEnv;
using bv::Value;

namespace {

constexpr int kMaxFunctionDepth = 32;
constexpr int64_t kMaxFunctionLoopIterations = 1024;

std::string
signedSuffix(int64_t v)
{
    // Negative values would put a '-' into an identifier; spell it out.
    if (v < 0) {
        std::string out("m");
        out += std::to_string(-v);
        return out;
    }
    return std::to_string(v);
}

std::vector<ItemPtr>
cloneItems(const std::vector<ItemPtr> &items)
{
    std::vector<ItemPtr> copy;
    copy.reserve(items.size());
    for (const auto &item : items)
        copy.push_back(item->clone());
    return copy;
}

class Lowerer
{
  public:
    Lowerer(Module &m, const ConstEnv &overrides)
        : _m(m), _overrides(overrides)
    {
    }

    void
    run()
    {
        collectParams();
        _m.items = expandGenerates(std::move(_m.items));
        // Generate bodies may declare localparams; pick them up for
        // the passes below (memory depths, function loop bounds).
        collectParams();
        inlineFunctions();
        lowerMemories();
        mergePartialContAssigns();
    }

  private:
    // -----------------------------------------------------------------
    // Shared helpers
    // -----------------------------------------------------------------

    ExprPtr
    makeLiteral(uint32_t width, uint64_t value, SourceLoc loc = {})
    {
        auto *lit = new LiteralExpr(Value::fromUint(width, value), true);
        lit->id = _m.newNodeId();
        lit->loc = loc;
        return ExprPtr(lit);
    }

    ExprPtr
    makeXLiteral(uint32_t width, SourceLoc loc = {})
    {
        auto *lit = new LiteralExpr(Value::allX(width), true);
        lit->id = _m.newNodeId();
        lit->loc = loc;
        return ExprPtr(lit);
    }

    ExprPtr
    makeIdent(const std::string &name, SourceLoc loc = {})
    {
        auto *ident = new IdentExpr(name);
        ident->id = _m.newNodeId();
        ident->loc = loc;
        return ExprPtr(ident);
    }

    /** Coerce @p e to exactly @p width bits (zero-extend / truncate). */
    ExprPtr
    wrapWidth(ExprPtr e, uint32_t width)
    {
        if (e->kind == Expr::Kind::Literal) {
            auto &lit = static_cast<LiteralExpr &>(*e);
            if (lit.value.width() == width)
                return e;
            auto *adjusted =
                new LiteralExpr(lit.value.resize(width), true);
            adjusted->id = e->id;
            adjusted->loc = e->loc;
            return ExprPtr(adjusted);
        }
        SourceLoc loc = e->loc;
        std::vector<ExprPtr> parts;
        parts.push_back(makeLiteral(width, 0, loc));
        parts.push_back(std::move(e));
        auto *cat = new ConcatExpr(std::move(parts));
        cat->id = _m.newNodeId();
        cat->loc = loc;
        auto *sel = new RangeSelectExpr(ExprPtr(cat),
                                        makeLiteral(32, width - 1, loc),
                                        makeLiteral(32, 0, loc));
        sel->id = _m.newNodeId();
        sel->loc = loc;
        return ExprPtr(sel);
    }

    // -----------------------------------------------------------------
    // Parameter environment
    // -----------------------------------------------------------------

    void
    collectParams()
    {
        for (const auto &item : _m.items) {
            if (item->kind != Item::Kind::Param)
                continue;
            const auto &p = static_cast<const ParamDecl &>(*item);
            auto ov = _overrides.find(p.name);
            if (ov != _overrides.end() && !p.is_local) {
                _params[p.name] = ov->second;
                continue;
            }
            // Tolerate values we cannot fold yet (e.g. referencing a
            // function); SymbolTable::build reports those later.
            auto v = analysis::tryConstEval(*p.value, _params);
            if (v)
                _params[p.name] = *v;
        }
    }

    // -----------------------------------------------------------------
    // Generate unrolling
    // -----------------------------------------------------------------

    std::vector<ItemPtr>
    expandGenerates(std::vector<ItemPtr> items)
    {
        std::vector<ItemPtr> out;
        out.reserve(items.size());
        for (auto &item : items) {
            switch (item->kind) {
              case Item::Kind::Genvar:
                break; // compiled away
              case Item::Kind::GenFor:
                expandGenFor(static_cast<GenFor &>(*item), out);
                break;
              case Item::Kind::GenIf:
                expandGenIf(static_cast<GenIf &>(*item), out);
                break;
              default:
                out.push_back(std::move(item));
                break;
            }
        }
        return out;
    }

    void
    expandGenFor(GenFor &g, std::vector<ItemPtr> &out)
    {
        std::string label =
            g.label.empty() ? format("genblk%d", ++_genblk) : g.label;
        int64_t v = analysis::constEvalInt(*g.init, _params);
        int64_t iterations = 0;
        while (true) {
            ConstEnv env = _params;
            env[g.genvar] =
                Value::fromUint(32, static_cast<uint64_t>(v));
            Value cond = analysis::constEval(*g.cond, env);
            if (cond.hasX()) {
                fatal(format("line %u:%u: generate-for condition "
                             "evaluates to X",
                             g.loc.line, g.loc.col));
            }
            if (cond.isZero())
                break;
            if (++iterations > kMaxGenerateIterations) {
                fatal(format("line %u:%u: generate-for loop exceeds "
                             "%lld iterations (does it terminate?)",
                             g.loc.line, g.loc.col,
                             static_cast<long long>(
                                 kMaxGenerateIterations)));
            }

            std::vector<ItemPtr> body = cloneItems(g.body);
            substituteGenvar(body, g.genvar, v);
            // Expand nested generates before applying this level's
            // prefix so composed names read outer-first, matching
            // the flattened form of `row[0].even.t`.
            body = expandGenerates(std::move(body));
            std::string prefix =
                label + "__" + signedSuffix(v) + "__";
            std::set<std::string> declared;
            collectDeclaredNames(body, declared);
            renameDeclared(body, declared, prefix);
            for (auto &sub : body)
                out.push_back(std::move(sub));

            v = analysis::constEvalInt(*g.step, env);
        }
    }

    void
    expandGenIf(GenIf &g, std::vector<ItemPtr> &out)
    {
        Value cond = analysis::constEval(*g.cond, _params);
        if (cond.hasX()) {
            fatal(format("line %u:%u: generate-if condition evaluates "
                         "to X",
                         g.loc.line, g.loc.col));
        }
        bool taken = cond.isNonZero();
        std::vector<ItemPtr> body =
            std::move(taken ? g.then_items : g.else_items);
        const std::string &branch_label =
            taken ? g.then_label : g.else_label;
        body = expandGenerates(std::move(body));
        if (!branch_label.empty()) {
            std::set<std::string> declared;
            collectDeclaredNames(body, declared);
            renameDeclared(body, declared, branch_label + "__");
        }
        for (auto &sub : body)
            out.push_back(std::move(sub));
    }

    void
    substituteGenvar(std::vector<ItemPtr> &items,
                     const std::string &genvar, int64_t value)
    {
        rewriteItemsExprs(items, [&](ExprPtr &e) {
            if (e->kind != Expr::Kind::Ident)
                return;
            if (static_cast<IdentExpr &>(*e).name != genvar)
                return;
            auto *lit = new LiteralExpr(
                Value::fromUint(32, static_cast<uint64_t>(value)),
                false);
            lit->id = e->id;
            lit->loc = e->loc;
            e.reset(lit);
        });
    }

    void
    collectDeclaredNames(const std::vector<ItemPtr> &items,
                         std::set<std::string> &out)
    {
        for (const auto &item : items) {
            switch (item->kind) {
              case Item::Kind::Net:
                out.insert(static_cast<const NetDecl &>(*item).name);
                break;
              case Item::Kind::Param:
                out.insert(static_cast<const ParamDecl &>(*item).name);
                break;
              case Item::Kind::Instance:
                out.insert(static_cast<const Instance &>(*item)
                               .instance_name);
                break;
              case Item::Kind::Function:
                out.insert(
                    static_cast<const FunctionDecl &>(*item).name);
                break;
              case Item::Kind::Genvar:
                out.insert(static_cast<const GenvarDecl &>(*item).name);
                break;
              case Item::Kind::GenFor:
                collectDeclaredNames(
                    static_cast<const GenFor &>(*item).body, out);
                break;
              case Item::Kind::GenIf: {
                const auto &gi = static_cast<const GenIf &>(*item);
                collectDeclaredNames(gi.then_items, out);
                collectDeclaredNames(gi.else_items, out);
                break;
              }
              case Item::Kind::ContAssign:
              case Item::Kind::Always:
              case Item::Kind::Initial:
                break;
            }
        }
    }

    void
    renameDeclared(std::vector<ItemPtr> &items,
                   const std::set<std::string> &declared,
                   const std::string &prefix)
    {
        for (auto &item : items) {
            switch (item->kind) {
              case Item::Kind::Net: {
                auto &n = static_cast<NetDecl &>(*item);
                if (declared.count(n.name))
                    n.name = prefix + n.name;
                break;
              }
              case Item::Kind::Param: {
                auto &p = static_cast<ParamDecl &>(*item);
                if (declared.count(p.name))
                    p.name = prefix + p.name;
                break;
              }
              case Item::Kind::Instance: {
                auto &inst = static_cast<Instance &>(*item);
                if (declared.count(inst.instance_name))
                    inst.instance_name = prefix + inst.instance_name;
                break;
              }
              case Item::Kind::Function: {
                auto &f = static_cast<FunctionDecl &>(*item);
                if (declared.count(f.name))
                    f.name = prefix + f.name;
                break;
              }
              case Item::Kind::Genvar: {
                auto &gv = static_cast<GenvarDecl &>(*item);
                if (declared.count(gv.name))
                    gv.name = prefix + gv.name;
                break;
              }
              case Item::Kind::Always: {
                auto &blk = static_cast<AlwaysBlock &>(*item);
                for (auto &sens : blk.sensitivity) {
                    if (declared.count(sens.signal))
                        sens.signal = prefix + sens.signal;
                }
                break;
              }
              case Item::Kind::GenFor:
                renameDeclared(static_cast<GenFor &>(*item).body,
                               declared, prefix);
                break;
              case Item::Kind::GenIf: {
                auto &gi = static_cast<GenIf &>(*item);
                renameDeclared(gi.then_items, declared, prefix);
                renameDeclared(gi.else_items, declared, prefix);
                break;
              }
              case Item::Kind::ContAssign:
              case Item::Kind::Initial:
                break;
            }
        }
        rewriteItemsExprs(items, [&](ExprPtr &e) {
            if (e->kind == Expr::Kind::Ident) {
                auto &ident = static_cast<IdentExpr &>(*e);
                if (declared.count(ident.name))
                    ident.name = prefix + ident.name;
            } else if (e->kind == Expr::Kind::Call) {
                auto &call = static_cast<CallExpr &>(*e);
                if (declared.count(call.callee))
                    call.callee = prefix + call.callee;
            }
        });
    }

    // -----------------------------------------------------------------
    // Function inlining
    // -----------------------------------------------------------------

    void
    inlineFunctions()
    {
        std::vector<ItemPtr> kept;
        kept.reserve(_m.items.size());
        for (auto &item : _m.items) {
            if (item->kind == Item::Kind::Function) {
                auto *f = static_cast<FunctionDecl *>(item.get());
                if (_functions.count(f->name)) {
                    fatal(format(
                        "line %u:%u: duplicate function '%s'",
                        f->loc.line, f->loc.col, f->name.c_str()));
                }
                _functions[f->name] = f;
                _function_storage.push_back(std::move(item));
            } else {
                kept.push_back(std::move(item));
            }
        }
        _m.items = std::move(kept);

        rewriteModuleExprs(_m, [this](ExprPtr &e) {
            if (e->kind != Expr::Kind::Call)
                return;
            // Arguments were already inlined by the post-order walk.
            ExprPtr inlined =
                inlineCall(static_cast<CallExpr &>(*e), 0);
            inlined->loc = e->loc;
            e = std::move(inlined);
        });
    }

    /** Environment of a symbolic function evaluation. */
    using FnEnv = std::map<std::string, ExprPtr>;

    ExprPtr
    inlineCall(const CallExpr &call, int depth)
    {
        if (depth > kMaxFunctionDepth) {
            fatal(format("line %u:%u: function call depth exceeds %d "
                         "(recursive functions are outside the "
                         "synthesizable subset)",
                         call.loc.line, call.loc.col,
                         kMaxFunctionDepth));
        }
        auto it = _functions.find(call.callee);
        if (it == _functions.end()) {
            fatal(format("line %u:%u: call of undefined function '%s'",
                         call.loc.line, call.loc.col,
                         call.callee.c_str()));
        }
        const FunctionDecl &decl = *it->second;
        if (call.args.size() != decl.inputs.size()) {
            fatal(format("line %u:%u: function '%s' takes %zu "
                         "argument(s), got %zu",
                         call.loc.line, call.loc.col,
                         call.callee.c_str(), decl.inputs.size(),
                         call.args.size()));
        }

        std::map<std::string, uint32_t> widths;
        FnEnv env;
        for (size_t i = 0; i < decl.inputs.size(); ++i) {
            uint32_t w = varWidth(decl.inputs[i]);
            widths[decl.inputs[i].name] = w;
            env[decl.inputs[i].name] =
                wrapWidth(call.args[i]->clone(), w);
        }
        for (const auto &local : decl.locals) {
            uint32_t w = varWidth(local);
            widths[local.name] = w;
            env[local.name] = makeXLiteral(w, decl.loc);
        }
        uint32_t ret_width = returnWidth(decl);
        widths[decl.name] = ret_width;
        env[decl.name] = makeXLiteral(ret_width, decl.loc);

        evalFnStmt(*decl.body, env, widths, decl);

        ExprPtr result = env[decl.name]->clone();
        // The body may call other functions; resolve those too.
        rewriteExprTree(result, [this, depth](ExprPtr &e) {
            if (e->kind != Expr::Kind::Call)
                return;
            ExprPtr inlined =
                inlineCall(static_cast<CallExpr &>(*e), depth + 1);
            inlined->loc = e->loc;
            e = std::move(inlined);
        });
        return result;
    }

    uint32_t
    varWidth(const FunctionVar &var)
    {
        if (var.is_integer)
            return 32;
        if (!var.msb)
            return 1;
        int64_t msb = analysis::constEvalInt(*var.msb, _params);
        int64_t lsb = analysis::constEvalInt(*var.lsb, _params);
        return static_cast<uint32_t>(msb > lsb ? msb - lsb
                                               : lsb - msb) +
               1u;
    }

    uint32_t
    returnWidth(const FunctionDecl &decl)
    {
        if (!decl.ret_msb)
            return 1;
        int64_t msb = analysis::constEvalInt(*decl.ret_msb, _params);
        int64_t lsb = analysis::constEvalInt(*decl.ret_lsb, _params);
        return static_cast<uint32_t>(msb > lsb ? msb - lsb
                                               : lsb - msb) +
               1u;
    }

    /** Clone @p expr with current symbolic variable values spliced in. */
    ExprPtr
    substituteFnEnv(const Expr &expr, const FnEnv &env)
    {
        ExprPtr copy = expr.clone();
        rewriteExprTree(copy, [&env](ExprPtr &e) {
            if (e->kind != Expr::Kind::Ident)
                return;
            auto it = env.find(static_cast<IdentExpr &>(*e).name);
            if (it == env.end())
                return;
            ExprPtr value = it->second->clone();
            value->loc = e->loc;
            e = std::move(value);
        });
        return copy;
    }

    /**
     * Symbolically execute a function-body statement, updating @p env.
     * @return the set of variables assigned somewhere in the subtree.
     */
    std::set<std::string>
    evalFnStmt(const Stmt &stmt, FnEnv &env,
               const std::map<std::string, uint32_t> &widths,
               const FunctionDecl &decl)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block: {
            std::set<std::string> assigned;
            for (const auto &s :
                 static_cast<const BlockStmt &>(stmt).stmts) {
                auto sub = evalFnStmt(*s, env, widths, decl);
                assigned.insert(sub.begin(), sub.end());
            }
            return assigned;
          }
          case Stmt::Kind::Assign: {
            const auto &a = static_cast<const AssignStmt &>(stmt);
            if (!a.blocking) {
                fatal(format("line %u:%u: non-blocking assignment "
                             "inside function '%s'",
                             a.loc.line, a.loc.col,
                             decl.name.c_str()));
            }
            if (a.lhs->kind != Expr::Kind::Ident) {
                fatal(format("line %u:%u: function '%s' may only "
                             "assign whole variables",
                             a.loc.line, a.loc.col,
                             decl.name.c_str()));
            }
            const std::string &name =
                static_cast<const IdentExpr &>(*a.lhs).name;
            auto w = widths.find(name);
            if (w == widths.end()) {
                fatal(format("line %u:%u: function '%s' assigns "
                             "'%s', which is not a local or the "
                             "return value",
                             a.loc.line, a.loc.col,
                             decl.name.c_str(), name.c_str()));
            }
            env[name] =
                wrapWidth(substituteFnEnv(*a.rhs, env), w->second);
            return {name};
          }
          case Stmt::Kind::If: {
            const auto &i = static_cast<const IfStmt &>(stmt);
            ExprPtr cond = substituteFnEnv(*i.cond, env);
            auto cv = analysis::tryConstEval(*cond, _params);
            if (cv && !cv->hasX()) {
                if (cv->isNonZero())
                    return evalFnStmt(*i.then_stmt, env, widths, decl);
                if (i.else_stmt)
                    return evalFnStmt(*i.else_stmt, env, widths, decl);
                return {};
            }
            FnEnv then_env = cloneEnv(env);
            FnEnv else_env = cloneEnv(env);
            auto then_set =
                evalFnStmt(*i.then_stmt, then_env, widths, decl);
            std::set<std::string> else_set;
            if (i.else_stmt) {
                else_set =
                    evalFnStmt(*i.else_stmt, else_env, widths, decl);
            }
            std::set<std::string> assigned = then_set;
            assigned.insert(else_set.begin(), else_set.end());
            for (const auto &name : assigned) {
                auto *merge = new TernaryExpr(
                    cond->clone(), then_env[name]->clone(),
                    else_env[name]->clone());
                merge->id = _m.newNodeId();
                merge->loc = i.loc;
                env[name] = ExprPtr(merge);
            }
            return assigned;
          }
          case Stmt::Kind::Case: {
            const auto &c = static_cast<const CaseStmt &>(stmt);
            if (c.mode != CaseStmt::Mode::Plain) {
                fatal(format("line %u:%u: casez/casex inside function "
                             "'%s' is outside the synthesizable "
                             "subset",
                             c.loc.line, c.loc.col,
                             decl.name.c_str()));
            }
            StmtPtr chain = desugarCase(c);
            if (!chain)
                return {};
            return evalFnStmt(*chain, env, widths, decl);
          }
          case Stmt::Kind::For: {
            const auto &f = static_cast<const ForStmt &>(stmt);
            check(f.init->kind == Stmt::Kind::Assign &&
                      f.step->kind == Stmt::Kind::Assign,
                  "for loop with non-assignment init/step");
            const auto &init =
                static_cast<const AssignStmt &>(*f.init);
            const auto &step =
                static_cast<const AssignStmt &>(*f.step);
            if (init.lhs->kind != Expr::Kind::Ident ||
                step.lhs->kind != Expr::Kind::Ident) {
                fatal(format("line %u:%u: for loop inside function "
                             "'%s' must use a simple loop variable",
                             f.loc.line, f.loc.col,
                             decl.name.c_str()));
            }
            const std::string &var =
                static_cast<const IdentExpr &>(*init.lhs).name;
            auto w = widths.find(var);
            if (w == widths.end()) {
                fatal(format("line %u:%u: loop variable '%s' is not "
                             "declared in function '%s'",
                             f.loc.line, f.loc.col, var.c_str(),
                             decl.name.c_str()));
            }
            std::set<std::string> assigned{var};
            env[var] = constFnExpr(*init.rhs, env, f.loc,
                                   decl.name.c_str());
            int64_t iterations = 0;
            while (true) {
                ExprPtr cond = substituteFnEnv(*f.cond, env);
                auto cv = analysis::tryConstEval(*cond, _params);
                if (!cv || cv->hasX()) {
                    fatal(format(
                        "line %u:%u: for-loop condition inside "
                        "function '%s' must be compile-time constant",
                        f.loc.line, f.loc.col, decl.name.c_str()));
                }
                if (cv->isZero())
                    break;
                if (++iterations > kMaxFunctionLoopIterations) {
                    fatal(format(
                        "line %u:%u: for loop inside function '%s' "
                        "exceeds %lld iterations",
                        f.loc.line, f.loc.col, decl.name.c_str(),
                        static_cast<long long>(
                            kMaxFunctionLoopIterations)));
                }
                auto sub = evalFnStmt(*f.body, env, widths, decl);
                assigned.insert(sub.begin(), sub.end());
                env[var] = constFnExpr(*step.rhs, env, f.loc,
                                       decl.name.c_str());
            }
            return assigned;
          }
          case Stmt::Kind::Empty:
            return {};
        }
        panic("unknown statement kind in function body");
    }

    /** Evaluate @p expr to a constant literal under the fn env. */
    ExprPtr
    constFnExpr(const Expr &expr, const FnEnv &env, SourceLoc loc,
                const char *fn_name)
    {
        ExprPtr sub = substituteFnEnv(expr, env);
        auto v = analysis::tryConstEval(*sub, _params);
        if (!v || v->hasX()) {
            fatal(format("line %u:%u: for-loop bound inside function "
                         "'%s' must be compile-time constant",
                         loc.line, loc.col, fn_name));
        }
        auto *lit = new LiteralExpr(*v, true);
        lit->id = _m.newNodeId();
        lit->loc = loc;
        return ExprPtr(lit);
    }

    FnEnv
    cloneEnv(const FnEnv &env)
    {
        FnEnv copy;
        for (const auto &[name, value] : env)
            copy[name] = value->clone();
        return copy;
    }

    /** Rewrite a plain case statement into an if/else chain. */
    StmtPtr
    desugarCase(const CaseStmt &c)
    {
        StmtPtr chain =
            c.default_body ? c.default_body->clone() : nullptr;
        for (size_t i = c.items.size(); i-- > 0;) {
            const CaseItem &item = c.items[i];
            ExprPtr cond;
            for (const auto &label : item.labels) {
                auto *eq = new BinaryExpr(BinaryOp::Eq,
                                          c.subject->clone(),
                                          label->clone());
                eq->id = _m.newNodeId();
                eq->loc = c.loc;
                if (!cond) {
                    cond = ExprPtr(eq);
                } else {
                    auto *orx = new BinaryExpr(BinaryOp::LogicOr,
                                               std::move(cond),
                                               ExprPtr(eq));
                    orx->id = _m.newNodeId();
                    orx->loc = c.loc;
                    cond = ExprPtr(orx);
                }
            }
            if (!cond)
                continue;
            auto *branch = new IfStmt(std::move(cond),
                                      item.body->clone(),
                                      std::move(chain));
            branch->id = _m.newNodeId();
            branch->loc = c.loc;
            chain = StmtPtr(branch);
        }
        return chain;
    }

    // -----------------------------------------------------------------
    // Memory lowering (word banks)
    // -----------------------------------------------------------------

    struct MemInfo
    {
        int64_t lo = 0;
        int64_t hi = 0;
        uint32_t width = 1;
    };

    void
    lowerMemories()
    {
        // Pass 1: replace memory declarations with per-word registers.
        std::vector<ItemPtr> out;
        out.reserve(_m.items.size());
        for (auto &item : _m.items) {
            if (item->kind != Item::Kind::Net ||
                !static_cast<NetDecl &>(*item).isMemory()) {
                out.push_back(std::move(item));
                continue;
            }
            auto &n = static_cast<NetDecl &>(*item);
            if (n.dir != PortDir::Unknown) {
                fatal(format("line %u:%u: memory '%s' cannot be a "
                             "port",
                             n.loc.line, n.loc.col, n.name.c_str()));
            }
            int64_t a = analysis::constEvalInt(*n.arr_msb, _params);
            int64_t b = analysis::constEvalInt(*n.arr_lsb, _params);
            MemInfo info;
            info.lo = std::min(a, b);
            info.hi = std::max(a, b);
            if (info.hi - info.lo + 1 > kMaxMemoryWords) {
                fatal(format("line %u:%u: memory '%s' has %lld words "
                             "(limit %lld)",
                             n.loc.line, n.loc.col, n.name.c_str(),
                             static_cast<long long>(info.hi - info.lo +
                                                    1),
                             static_cast<long long>(kMaxMemoryWords)));
            }
            if (n.msb) {
                int64_t msb =
                    analysis::constEvalInt(*n.msb, _params);
                int64_t lsb =
                    analysis::constEvalInt(*n.lsb, _params);
                info.width = static_cast<uint32_t>(
                                 msb > lsb ? msb - lsb : lsb - msb) +
                             1u;
            }
            _memories[n.name] = info;
            for (int64_t addr = info.lo; addr <= info.hi; ++addr) {
                auto *word = new NetDecl();
                word->id = _m.newNodeId();
                word->loc = n.loc;
                word->name = memoryWordName(n.name, addr);
                word->net = n.net;
                word->is_signed = n.is_signed;
                word->msb = n.msb ? n.msb->clone() : nullptr;
                word->lsb = n.lsb ? n.lsb->clone() : nullptr;
                out.emplace_back(word);
            }
        }
        _m.items = std::move(out);
        if (_memories.empty())
            return;

        // Pass 2: procedural writes (and continuous-assign targets).
        for (auto &item : _m.items) {
            if (item->kind == Item::Kind::Always) {
                rewriteStmtTree(static_cast<AlwaysBlock &>(*item).body,
                                [this](StmtPtr &s) {
                                    lowerMemoryWrite(s);
                                });
            } else if (item->kind == Item::Kind::Initial) {
                rewriteStmtTree(
                    static_cast<InitialBlock &>(*item).body,
                    [this](StmtPtr &s) { lowerMemoryWrite(s); });
            } else if (item->kind == Item::Kind::ContAssign) {
                lowerContAssignTarget(
                    static_cast<ContAssign &>(*item));
            }
        }

        // Pass 3: reads.
        rewriteModuleExprs(_m, [this](ExprPtr &e) {
            if (e->kind != Expr::Kind::Index)
                return;
            auto &ix = static_cast<IndexExpr &>(*e);
            const MemInfo *mem = memOf(*ix.base);
            if (!mem)
                return;
            e = lowerMemoryRead(ix, *mem);
        });

        // Pass 4: whatever still names a memory is outside the subset.
        rewriteModuleExprs(_m, [this](ExprPtr &e) {
            if (e->kind != Expr::Kind::Ident)
                return;
            const auto &name = static_cast<IdentExpr &>(*e).name;
            if (_memories.count(name)) {
                fatal(format("line %u:%u: memory '%s' used without an "
                             "index",
                             e->loc.line, e->loc.col, name.c_str()));
            }
        });

        // A memory in a sensitivity list means "any word".
        for (auto &item : _m.items) {
            if (item->kind != Item::Kind::Always)
                continue;
            auto &blk = static_cast<AlwaysBlock &>(*item);
            std::vector<SensItem> expanded;
            for (auto &sens : blk.sensitivity) {
                auto mem = _memories.find(sens.signal);
                if (mem == _memories.end()) {
                    expanded.push_back(sens);
                    continue;
                }
                for (int64_t addr = mem->second.lo;
                     addr <= mem->second.hi; ++addr) {
                    SensItem word = sens;
                    word.signal =
                        memoryWordName(sens.signal, addr);
                    expanded.push_back(word);
                }
            }
            blk.sensitivity = std::move(expanded);
        }
    }

    // -----------------------------------------------------------------
    // Partial continuous assigns
    // -----------------------------------------------------------------

    /**
     * Merge continuous assignments that drive constant bit/part
     * selects of one net into a single full-width assignment of a
     * concatenation (undriven bits read X).  Unrolled generate
     * blocks produce exactly this shape (`assign y[i] = ...` per
     * iteration); the elaborator itself only accepts whole-signal
     * continuous assignments.
     */
    void
    mergePartialContAssigns()
    {
        struct NetRange
        {
            int64_t lo = 0;
            uint32_t width = 1;
        };
        std::map<std::string, NetRange> nets;
        for (const auto &item : _m.items) {
            if (item->kind != Item::Kind::Net)
                continue;
            const auto &n = static_cast<const NetDecl &>(*item);
            NetRange r;
            if (n.msb) {
                auto mv = analysis::tryConstEval(*n.msb, _params);
                auto lv = analysis::tryConstEval(*n.lsb, _params);
                if (!mv || !lv || mv->hasX() || lv->hasX())
                    continue;
                int64_t msb = static_cast<int64_t>(mv->toUint64());
                int64_t lsb = static_cast<int64_t>(lv->toUint64());
                r.lo = std::min(msb, lsb);
                r.width =
                    static_cast<uint32_t>(std::llabs(msb - lsb)) + 1u;
            }
            nets[n.name] = r;
        }

        // Constant slices collected per driven net.
        struct Piece
        {
            int64_t lo = 0;
            int64_t hi = 0;
            ExprPtr rhs;
            const ContAssign *src = nullptr;
        };
        std::map<std::string, std::vector<Piece>> banks;
        for (const auto &item : _m.items) {
            if (item->kind != Item::Kind::ContAssign)
                continue;
            const auto &a = static_cast<const ContAssign &>(*item);
            std::string name;
            int64_t sel_hi = 0, sel_lo = 0;
            if (a.lhs->kind == Expr::Kind::Index) {
                const auto &ix = static_cast<IndexExpr &>(*a.lhs);
                if (ix.base->kind != Expr::Kind::Ident)
                    continue;
                auto iv = analysis::tryConstEval(*ix.index, _params);
                if (!iv || iv->hasX())
                    continue;
                name = static_cast<IdentExpr &>(*ix.base).name;
                sel_hi = sel_lo = static_cast<int64_t>(iv->toUint64());
            } else if (a.lhs->kind == Expr::Kind::RangeSelect) {
                const auto &rs =
                    static_cast<RangeSelectExpr &>(*a.lhs);
                if (rs.base->kind != Expr::Kind::Ident)
                    continue;
                auto mv = analysis::tryConstEval(*rs.msb, _params);
                auto lv = analysis::tryConstEval(*rs.lsb, _params);
                if (!mv || !lv || mv->hasX() || lv->hasX())
                    continue;
                name = static_cast<IdentExpr &>(*rs.base).name;
                sel_hi = static_cast<int64_t>(mv->toUint64());
                sel_lo = static_cast<int64_t>(lv->toUint64());
                if (sel_hi < sel_lo)
                    std::swap(sel_hi, sel_lo);
            } else {
                continue;
            }
            auto net = nets.find(name);
            if (net == nets.end())
                continue;
            const NetRange &r = net->second;
            int64_t p_lo = sel_lo - r.lo;
            int64_t p_hi = sel_hi - r.lo;
            if (p_lo < 0 || p_hi >= r.width) {
                fatal(format("line %u:%u: continuous assignment to "
                             "bits [%lld:%lld] of '%s' is out of "
                             "range",
                             a.loc.line, a.loc.col,
                             static_cast<long long>(sel_hi),
                             static_cast<long long>(sel_lo),
                             name.c_str()));
            }
            uint32_t piece_width =
                static_cast<uint32_t>(p_hi - p_lo) + 1u;
            Piece piece;
            piece.lo = p_lo;
            piece.hi = p_hi;
            piece.rhs = wrapWidth(a.rhs->clone(), piece_width);
            piece.src = &a;
            banks[name].push_back(std::move(piece));
        }
        if (banks.empty())
            return;

        // Assemble one full-width assign per driven net, filling
        // undriven bits with X.
        std::map<const ContAssign *, ItemPtr> replacement;
        std::set<const ContAssign *> drop;
        for (auto &[name, pieces] : banks) {
            const NetRange &r = nets.at(name);
            std::sort(pieces.begin(), pieces.end(),
                      [](const Piece &a, const Piece &b) {
                          return a.lo < b.lo;
                      });
            for (size_t i = 1; i < pieces.size(); ++i) {
                if (pieces[i].lo <= pieces[i - 1].hi) {
                    const ContAssign &a = *pieces[i].src;
                    fatal(format("line %u:%u: bit %lld of '%s' has "
                                 "multiple continuous drivers",
                                 a.loc.line, a.loc.col,
                                 static_cast<long long>(pieces[i].lo +
                                                        r.lo),
                                 name.c_str()));
                }
            }
            SourceLoc loc = pieces.front().src->loc;
            // Concat parts are written MSB first.
            std::vector<ExprPtr> parts;
            int64_t next = r.width; // first unfilled bit from the top
            for (auto it = pieces.rbegin(); it != pieces.rend();
                 ++it) {
                if (it->hi + 1 < next) {
                    parts.push_back(makeXLiteral(
                        static_cast<uint32_t>(next - it->hi - 1),
                        loc));
                }
                next = it->lo;
                parts.push_back(std::move(it->rhs));
            }
            if (next > 0) {
                parts.push_back(
                    makeXLiteral(static_cast<uint32_t>(next), loc));
            }
            ExprPtr rhs;
            if (parts.size() == 1) {
                rhs = std::move(parts.front());
            } else {
                auto *cat = new ConcatExpr(std::move(parts));
                cat->id = _m.newNodeId();
                cat->loc = loc;
                rhs = ExprPtr(cat);
            }
            auto *merged = new ContAssign();
            merged->id = _m.newNodeId();
            merged->loc = loc;
            merged->lhs = makeIdent(name, loc);
            merged->rhs = std::move(rhs);
            replacement[pieces.front().src] = ItemPtr(merged);
            for (size_t i = 1; i < pieces.size(); ++i)
                drop.insert(pieces[i].src);
        }

        std::vector<ItemPtr> out;
        out.reserve(_m.items.size());
        for (auto &item : _m.items) {
            if (item->kind == Item::Kind::ContAssign) {
                const auto *a =
                    static_cast<const ContAssign *>(item.get());
                if (drop.count(a))
                    continue;
                auto rep = replacement.find(a);
                if (rep != replacement.end()) {
                    out.push_back(std::move(rep->second));
                    continue;
                }
            }
            out.push_back(std::move(item));
        }
        _m.items = std::move(out);
    }

    /** The memory a (possibly indexed) base expression names, if any. */
    const MemInfo *
    memOf(const Expr &base)
    {
        if (base.kind != Expr::Kind::Ident)
            return nullptr;
        auto it =
            _memories.find(static_cast<const IdentExpr &>(base).name);
        return it == _memories.end() ? nullptr : &it->second;
    }

    void
    lowerMemoryWrite(StmtPtr &s)
    {
        if (s->kind != Stmt::Kind::Assign)
            return;
        auto &a = static_cast<AssignStmt &>(*s);
        // mem[addr] <= rhs
        if (a.lhs->kind == Expr::Kind::Index) {
            auto &ix = static_cast<IndexExpr &>(*a.lhs);
            if (const MemInfo *mem = memOf(*ix.base)) {
                rewriteWordWrite(s, a, ix, *mem);
                return;
            }
            // mem[addr][bit] <= rhs: resolve the word, keep the
            // bit-select.
            if (ix.base->kind == Expr::Kind::Index) {
                auto &inner = static_cast<IndexExpr &>(*ix.base);
                if (const MemInfo *mem = memOf(*inner.base)) {
                    inner.base = resolveConstWord(
                        inner, *mem,
                        "bit-select write to a memory word");
                    // Collapse Index(Ident word, bit).
                    ix.base = std::move(inner.base);
                }
            }
            return;
        }
        if (a.lhs->kind == Expr::Kind::RangeSelect) {
            auto &r = static_cast<RangeSelectExpr &>(*a.lhs);
            if (r.base->kind == Expr::Kind::Index) {
                auto &inner = static_cast<IndexExpr &>(*r.base);
                if (const MemInfo *mem = memOf(*inner.base)) {
                    r.base = resolveConstWord(
                        inner, *mem,
                        "part-select write to a memory word");
                }
            }
            return;
        }
        if (a.lhs->kind == Expr::Kind::Concat) {
            for (auto &part :
                 static_cast<ConcatExpr &>(*a.lhs).parts) {
                if (part->kind != Expr::Kind::Index)
                    continue;
                auto &ix = static_cast<IndexExpr &>(*part);
                if (const MemInfo *mem = memOf(*ix.base)) {
                    part = resolveConstWord(
                        ix, *mem,
                        "memory write inside a concatenation");
                }
            }
        }
    }

    /**
     * Resolve mem[constant] to the word register; used where a
     * dynamic address cannot be expressed (nested selects, concats).
     */
    ExprPtr
    resolveConstWord(IndexExpr &ix, const MemInfo &mem,
                     const char *what)
    {
        const auto &name =
            static_cast<const IdentExpr &>(*ix.base).name;
        auto idx = analysis::tryConstEval(*ix.index, _params);
        if (!idx || idx->hasX()) {
            fatal(format("line %u:%u: %s requires a constant address "
                         "(memory '%s')",
                         ix.loc.line, ix.loc.col, what,
                         name.c_str()));
        }
        int64_t addr = static_cast<int64_t>(idx->toUint64());
        if (addr < mem.lo || addr > mem.hi) {
            fatal(format("line %u:%u: address %lld is outside memory "
                         "'%s' range [%lld:%lld]",
                         ix.loc.line, ix.loc.col,
                         static_cast<long long>(addr), name.c_str(),
                         static_cast<long long>(mem.lo),
                         static_cast<long long>(mem.hi)));
        }
        return makeIdent(memoryWordName(name, addr), ix.loc);
    }

    void
    rewriteWordWrite(StmtPtr &s, AssignStmt &a, IndexExpr &ix,
                     const MemInfo &mem)
    {
        const auto &name =
            static_cast<const IdentExpr &>(*ix.base).name;
        auto idx = analysis::tryConstEval(*ix.index, _params);
        if (idx && !idx->hasX()) {
            int64_t addr = static_cast<int64_t>(idx->toUint64());
            if (addr < mem.lo || addr > mem.hi) {
                logMessage(LogLevel::Warn,
                           format("line %u:%u: write to '%s[%lld]' is "
                                  "out of range; dropped",
                                  a.loc.line, a.loc.col, name.c_str(),
                                  static_cast<long long>(addr)));
                auto *empty = new EmptyStmt();
                empty->id = s->id;
                empty->loc = s->loc;
                s.reset(empty);
                return;
            }
            a.lhs = makeIdent(memoryWordName(name, addr), ix.loc);
            return;
        }
        // Dynamic address: one guarded write per word; an X or
        // out-of-range address matches no guard and drops the write,
        // as in event-driven simulation.
        StmtPtr chain;
        for (int64_t addr = mem.hi; addr >= mem.lo; --addr) {
            auto *eq = new BinaryExpr(
                BinaryOp::Eq, ix.index->clone(),
                makeLiteral(32, static_cast<uint64_t>(addr), ix.loc));
            eq->id = _m.newNodeId();
            eq->loc = ix.loc;
            auto *write = new AssignStmt(
                makeIdent(memoryWordName(name, addr), ix.loc),
                a.rhs->clone(), a.blocking);
            write->id = _m.newNodeId();
            write->loc = a.loc;
            auto *branch = new IfStmt(ExprPtr(eq), StmtPtr(write),
                                      std::move(chain));
            branch->id = _m.newNodeId();
            branch->loc = a.loc;
            chain = StmtPtr(branch);
        }
        if (!chain) {
            chain = StmtPtr(new EmptyStmt());
            chain->id = s->id;
        }
        s = std::move(chain);
    }

    void
    lowerContAssignTarget(ContAssign &a)
    {
        if (a.lhs->kind != Expr::Kind::Index)
            return;
        auto &ix = static_cast<IndexExpr &>(*a.lhs);
        if (const MemInfo *mem = memOf(*ix.base)) {
            a.lhs = resolveConstWord(
                ix, *mem, "continuous assignment to a memory");
        }
    }

    ExprPtr
    lowerMemoryRead(IndexExpr &ix, const MemInfo &mem)
    {
        const auto &name =
            static_cast<const IdentExpr &>(*ix.base).name;
        auto idx = analysis::tryConstEval(*ix.index, _params);
        if (idx && !idx->hasX()) {
            int64_t addr = static_cast<int64_t>(idx->toUint64());
            if (addr < mem.lo || addr > mem.hi) {
                logMessage(LogLevel::Warn,
                           format("line %u:%u: read of '%s[%lld]' is "
                                  "out of range; reads as X",
                                  ix.loc.line, ix.loc.col,
                                  name.c_str(),
                                  static_cast<long long>(addr)));
                return makeXLiteral(mem.width, ix.loc);
            }
            return makeIdent(memoryWordName(name, addr), ix.loc);
        }
        // Dynamic address: select chain ending in X (unmatched or X
        // address reads all-X).
        ExprPtr acc = makeXLiteral(mem.width, ix.loc);
        for (int64_t addr = mem.hi; addr >= mem.lo; --addr) {
            auto *eq = new BinaryExpr(
                BinaryOp::Eq, ix.index->clone(),
                makeLiteral(32, static_cast<uint64_t>(addr), ix.loc));
            eq->id = _m.newNodeId();
            eq->loc = ix.loc;
            auto *sel = new TernaryExpr(
                ExprPtr(eq), makeIdent(memoryWordName(name, addr),
                                       ix.loc),
                std::move(acc));
            sel->id = _m.newNodeId();
            sel->loc = ix.loc;
            acc = ExprPtr(sel);
        }
        return acc;
    }

    Module &_m;
    const ConstEnv &_overrides;
    ConstEnv _params;
    int _genblk = 0;
    std::map<std::string, const FunctionDecl *> _functions;
    std::vector<ItemPtr> _function_storage;
    std::map<std::string, MemInfo> _memories;
};

} // namespace

std::string
memoryWordName(const std::string &mem, int64_t addr)
{
    return mem + "__w" + signedSuffix(addr);
}

void
lowerModule(Module &module, const ConstEnv &overrides)
{
    Lowerer(module, overrides).run();
}

} // namespace rtlrepair::elaborate
