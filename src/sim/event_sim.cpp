#include "sim/event_sim.hpp"

#include <algorithm>

#include "elaborate/elaborate.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "verilog/ast_util.hpp"

namespace rtlrepair::sim {

using namespace verilog;
using analysis::ProcessInfo;
using bv::Value;

namespace {
constexpr int kMaxDeltaRounds = 200;
} // namespace

EventDesign::EventDesign(const Module &mod,
                         const std::vector<const Module *> &library)
{
    elaborate::ElaborateOptions opts;
    opts.library = library;
    _mod = elaborate::flattenHierarchy(mod, opts);
    _table = analysis::SymbolTable::build(*_mod);

    for (const auto &item : _mod->items) {
        if (item->kind == Item::Kind::Always) {
            const auto &blk = static_cast<const AlwaysBlock &>(*item);
            Proc proc;
            proc.block = &blk;
            proc.info = analysis::analyzeProcess(blk);
            proc.body = blk.body->clone();
            analysis::unrollFors(proc.body, _table.params());
            _procs.push_back(std::move(proc));
        } else if (item->kind == Item::Kind::ContAssign) {
            const auto *assign =
                static_cast<const ContAssign *>(item.get());
            _cont_assigns.push_back(assign);
            std::set<std::string> reads;
            collectIdents(*assign->rhs, reads);
            if (assign->lhs->kind != Expr::Kind::Ident)
                collectIdents(*assign->lhs, reads);
            _cont_reads.push_back(std::move(reads));
        }
    }
}

EventSimulator::EventSimulator(
    const Module &mod, const std::vector<const Module *> &library,
    std::string clock, bool reverse_order)
    : EventDesign(mod, library), _clock(std::move(clock))
{
    if (reverse_order)
        std::reverse(_procs.begin(), _procs.end());
    powerOn();
}

void
EventSimulator::powerOn()
{
    _values.clear();
    _prev.clear();
    _changed.clear();
    _nba.clear();
    _sampled.clear();
    _unstable = false;
    for (const auto &[name, range] : _table.nets()) {
        _values[name] = Value::allX(range.width);
        _prev[name] = Value::allX(range.width);
    }
    runInitialBlocks();
    // Evaluate all continuous assigns and comb processes once.
    for (const auto &[name, range] : _table.nets()) {
        (void)range;
        _changed.insert(name);
    }
    settle();
}

void
EventSimulator::runInitialBlocks()
{
    for (const auto &item : _mod->items) {
        if (item->kind != Item::Kind::Initial)
            continue;
        const auto &blk = static_cast<const InitialBlock &>(*item);
        StmtPtr body = blk.body->clone();
        analysis::unrollFors(body, _table.params());
        execStmt(*body);
    }
    // Apply any non-blocking writes from initial blocks.
    for (auto &[name, value] : _nba)
        writeSignal(name, value);
    _nba.clear();
}

void
EventSimulator::setInput(const std::string &name, const Value &value)
{
    writeSignal(name, value.resize(_table.widthOf(name)));
}

void
EventSimulator::setInput(size_t port, const Value &value)
{
    setInput(_mod->ports[port].name, value);
}

Value
EventSimulator::get(const std::string &name) const
{
    auto it = _values.find(name);
    check(it != _values.end(), "unknown signal: " + name);
    return it->second;
}

const Value &
EventSimulator::sampledOutput(size_t port) const
{
    check(port < _sampled.size() &&
              _mod->ports[port].dir == PortDir::Output,
          "output was not sampled");
    return _sampled[port];
}

void
EventSimulator::writeSignal(const std::string &name, const Value &value)
{
    auto it = _values.find(name);
    check(it != _values.end(), "write to unknown signal: " + name);
    if (it->second == value)
        return;
    it->second = value;
    _changed.insert(name);
}

void
EventSimulator::step()
{
    if (!_clock.empty())
        setInput(_clock, Value::fromUint(1, 0));
    settle();
    // Sample outputs before the rising edge.
    _sampled.resize(_mod->ports.size());
    for (size_t i = 0; i < _mod->ports.size(); ++i) {
        if (_mod->ports[i].dir == PortDir::Output)
            _sampled[i] = get(_mod->ports[i].name);
    }
    if (!_clock.empty()) {
        setInput(_clock, Value::fromUint(1, 1));
        settle();
    }
}

void
EventSimulator::settle()
{
    for (int round = 0; round < kMaxDeltaRounds; ++round) {
        if (_changed.empty()) {
            if (_nba.empty())
                return;
            // NBA region: apply queued register updates.
            std::map<std::string, Value> nba = std::move(_nba);
            _nba.clear();
            for (const auto &[name, value] : nba)
                writeSignal(name, value);
            continue;
        }

        // Take the batch and record transitions for edge detection.
        std::set<std::string> batch = std::move(_changed);
        _changed.clear();
        std::map<std::string, std::pair<int, int>> transitions;
        for (const auto &name : batch) {
            const Value &now = _values.at(name);
            const Value &old = _prev.at(name);
            int ob = old.width() >= 1 ? old.bit(0) : 0;
            int nb = now.width() >= 1 ? now.bit(0) : 0;
            transitions[name] = {ob, nb};
            _prev[name] = now;
        }

        // Continuous assignments sensitive to the batch.
        for (size_t ai = 0; ai < _cont_assigns.size(); ++ai) {
            const ContAssign *assign = _cont_assigns[ai];
            const std::set<std::string> &reads = _cont_reads[ai];
            bool hit = false;
            for (const auto &name : batch) {
                if (reads.count(name)) {
                    hit = true;
                    break;
                }
            }
            if (!hit)
                continue;
            std::string target = analysis::lhsBaseName(*assign->lhs);
            uint32_t ctx = _table.widthOf(target);
            assignNow(*assign->lhs, evalExpr(*assign->rhs, ctx));
        }

        // Processes.
        for (const Proc &proc : _procs) {
            bool triggered = false;
            if (proc.info.kind == ProcessInfo::Kind::Clocked) {
                for (const auto &sens : proc.block->sensitivity) {
                    auto t = transitions.find(sens.signal);
                    if (t == transitions.end())
                        continue;
                    auto [ob, nb] = t->second;
                    if (sens.edge == SensItem::Edge::Posedge &&
                        nb == 1 && ob != 1) {
                        triggered = true;
                    } else if (sens.edge == SensItem::Edge::Negedge &&
                               nb == 0 && ob != 0) {
                        triggered = true;
                    } else if (sens.edge == SensItem::Edge::Level &&
                               ob != nb) {
                        triggered = true;
                    }
                }
            } else {
                bool star = false;
                for (const auto &sens : proc.block->sensitivity) {
                    if (sens.edge == SensItem::Edge::Star)
                        star = true;
                }
                const std::set<std::string> &watch =
                    star ? proc.info.read : proc.info.listed;
                for (const auto &name : batch) {
                    if (watch.count(name)) {
                        triggered = true;
                        break;
                    }
                }
            }
            if (triggered)
                runProcess(proc);
        }
    }
    _unstable = true;
    // Info, not Warn: oscillating *mutants* are routine during the
    // genetic baseline's search; callers inspect unstable().
    logMessage(LogLevel::Info,
               "event simulation did not settle (oscillation)");
}

void
EventSimulator::runProcess(const Proc &proc)
{
    // A process evaluates atomically: only signals whose value at the
    // END of the run differs from their value BEFORE the run count as
    // changed.  (Intermediate blocking writes — e.g. the running value
    // of an unrolled accumulation loop — must not re-trigger the
    // process itself, or self-reading processes would oscillate.)
    std::map<std::string, Value> pre;
    for (const auto &name : proc.info.assigned) {
        auto it = _values.find(name);
        if (it != _values.end())
            pre[name] = it->second;
    }
    execStmt(*proc.body);
    for (const auto &[name, before] : pre) {
        if (_values.at(name) == before)
            _changed.erase(name);
    }
}

void
EventSimulator::execStmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case Stmt::Kind::Block:
        for (const auto &s : static_cast<const BlockStmt &>(stmt).stmts)
            execStmt(*s);
        return;
      case Stmt::Kind::If: {
        const auto &i = static_cast<const IfStmt &>(stmt);
        Value cond = evalExpr(*i.cond, 0);
        // X condition: the else branch runs (cond is not true).
        if (cond.isNonZero()) {
            execStmt(*i.then_stmt);
        } else if (i.else_stmt) {
            execStmt(*i.else_stmt);
        }
        return;
      }
      case Stmt::Kind::Case: {
        const auto &c = static_cast<const CaseStmt &>(stmt);
        uint32_t ctx = analysis::exprWidth(*c.subject, _table);
        for (const auto &item : c.items) {
            for (const auto &label : item.labels) {
                ctx = std::max(ctx,
                               analysis::exprWidth(*label, _table));
            }
        }
        Value subject = evalExpr(*c.subject, ctx);
        if (subject.width() < ctx)
            subject = subject.zext(ctx);
        for (const auto &item : c.items) {
            for (const auto &label : item.labels) {
                Value lv = evalExpr(*label, ctx).resize(ctx);
                if (caseMatches(subject, lv, c.mode)) {
                    execStmt(*item.body);
                    return;
                }
            }
        }
        if (c.default_body)
            execStmt(*c.default_body);
        return;
      }
      case Stmt::Kind::Assign: {
        const auto &a = static_cast<const AssignStmt &>(stmt);
        if (a.lhs->kind == Expr::Kind::Concat) {
            const auto &c = static_cast<const ConcatExpr &>(*a.lhs);
            uint32_t total = 0;
            std::vector<uint32_t> widths;
            for (const auto &part : c.parts) {
                std::string name = analysis::lhsBaseName(*part);
                uint32_t w = part->kind == Expr::Kind::Ident
                                 ? _table.widthOf(name)
                                 : 1;
                widths.push_back(w);
                total += w;
            }
            Value rhs = evalExpr(*a.rhs, total);
            if (rhs.width() < total)
                rhs = rhs.zext(total);
            uint32_t off = total;
            for (size_t i = 0; i < c.parts.size(); ++i) {
                off -= widths[i];
                Value piece = rhs.slice(off + widths[i] - 1, off);
                if (a.blocking) {
                    assignNow(*c.parts[i], piece);
                } else {
                    // Queue per-signal; approximate selects on parts.
                    std::string name =
                        analysis::lhsBaseName(*c.parts[i]);
                    _nba[name] = piece;
                }
            }
            return;
        }
        std::string name = analysis::lhsBaseName(*a.lhs);
        uint32_t ctx = a.lhs->kind == Expr::Kind::Ident
                           ? _table.widthOf(name)
                           : 1;
        if (a.lhs->kind == Expr::Kind::RangeSelect) {
            const auto &r =
                static_cast<const RangeSelectExpr &>(*a.lhs);
            int64_t msb =
                analysis::constEvalInt(*r.msb, _table.params());
            int64_t lsb =
                analysis::constEvalInt(*r.lsb, _table.params());
            ctx = static_cast<uint32_t>(std::abs(msb - lsb)) + 1;
        }
        Value rhs = evalExpr(*a.rhs, ctx);
        if (a.blocking) {
            assignNow(*a.lhs, std::move(rhs));
            return;
        }
        // NBA: the RHS and any select index read pre-edge values now;
        // the merged full-signal value is queued for the NBA region.
        uint32_t pos = 0, width = 0;
        std::string base;
        readLhsTarget(*a.lhs, pos, width, base);
        Value target = _values.at(name);
        auto queued = _nba.find(name);
        if (queued != _nba.end())
            target = queued->second;
        if (a.lhs->kind == Expr::Kind::Ident) {
            target = rhs.resize(target.width());
        } else if (pos < target.width()) {
            rhs = rhs.resize(width);
            for (uint32_t b = 0;
                 b < width && pos + b < target.width(); ++b) {
                target.setBit(pos + b, rhs.bit(b));
            }
        }
        _nba[name] = target;
        return;
      }
      case Stmt::Kind::Empty:
        return;
      case Stmt::Kind::For:
        panic("for-loops are unrolled before event simulation");
    }
}

/**
 * Resolve an LHS select against the *current* value: returns the
 * current full value and fills position/width of the selected bits.
 */
Value
EventSimulator::readLhsTarget(const Expr &lhs, uint32_t &pos,
                              uint32_t &width, std::string &name)
{
    name = analysis::lhsBaseName(lhs);
    Value full = _values.at(name);
    int64_t lsb_off = _table.rangeOf(name).lsb;
    switch (lhs.kind) {
      case Expr::Kind::Ident:
        pos = 0;
        width = full.width();
        return full;
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(lhs);
        Value idx = evalExpr(*ix.index, 0);
        if (idx.hasX()) {
            pos = full.width();  // out of range: no write
            width = 1;
            return full;
        }
        int64_t p =
            static_cast<int64_t>(idx.toUint64()) - lsb_off;
        pos = p < 0 || p >= full.width()
                  ? full.width()
                  : static_cast<uint32_t>(p);
        width = 1;
        return full;
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(lhs);
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        pos = static_cast<uint32_t>(std::max<int64_t>(lsb, 0));
        width = static_cast<uint32_t>(msb - lsb + 1);
        return full;
      }
      default:
        fatal("unsupported assignment target in event simulation");
    }
}

void
EventSimulator::assignNow(const Expr &lhs, Value value)
{
    uint32_t pos = 0, width = 0;
    std::string name;
    Value full = readLhsTarget(lhs, pos, width, name);
    if (pos >= full.width())
        return; // X/out-of-range index: no write
    if (lhs.kind == Expr::Kind::Ident) {
        writeSignal(name, value.resize(full.width()));
        return;
    }
    value = value.resize(width);
    for (uint32_t b = 0; b < width && pos + b < full.width(); ++b)
        full.setBit(pos + b, value.bit(b));
    writeSignal(name, full);
}

bool
EventSimulator::caseMatches(const Value &subject, const Value &label,
                            CaseStmt::Mode mode) const
{
    switch (mode) {
      case CaseStmt::Mode::Plain:
        return subject.caseEq(label).isNonZero();
      case CaseStmt::Mode::CaseZ:
        // Label X/Z bits are wildcards (Z folded into X at parse).
        for (uint32_t i = 0; i < subject.width(); ++i) {
            int lb = label.bit(i);
            if (lb < 0)
                continue;
            if (subject.bit(i) != lb)
                return false;
        }
        return true;
      case CaseStmt::Mode::CaseX:
        for (uint32_t i = 0; i < subject.width(); ++i) {
            int lb = label.bit(i);
            int sb = subject.bit(i);
            if (lb < 0 || sb < 0)
                continue;
            if (sb != lb)
                return false;
        }
        return true;
    }
    return false;
}

Value
EventSimulator::evalExpr(const Expr &expr, uint32_t ctx) const
{
    switch (expr.kind) {
      case Expr::Kind::Ident: {
        const auto &name = static_cast<const IdentExpr &>(expr).name;
        auto param = _table.params().find(name);
        if (param != _table.params().end())
            return param->second;
        auto it = _values.find(name);
        check(it != _values.end(), "read of unknown signal: " + name);
        return it->second;
      }
      case Expr::Kind::Literal:
        return static_cast<const LiteralExpr &>(expr).value;
      case Expr::Kind::Call:
        panic("function call survived lowering");
      case Expr::Kind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(expr);
        switch (u.op) {
          case UnaryOp::BitNot: {
            Value v = evalExpr(*u.operand, ctx);
            if (v.width() < ctx)
                v = v.zext(ctx);
            return ~v;
          }
          case UnaryOp::LogicNot:
            return ~evalExpr(*u.operand, 0).redOr();
          case UnaryOp::Minus: {
            Value v = evalExpr(*u.operand, ctx);
            if (v.width() < ctx)
                v = v.zext(ctx);
            return v.negate();
          }
          case UnaryOp::Plus:
            return evalExpr(*u.operand, ctx);
          case UnaryOp::RedAnd:
            return evalExpr(*u.operand, 0).redAnd();
          case UnaryOp::RedOr:
            return evalExpr(*u.operand, 0).redOr();
          case UnaryOp::RedXor:
            return evalExpr(*u.operand, 0).redXor();
          case UnaryOp::RedNand:
            return ~evalExpr(*u.operand, 0).redAnd();
          case UnaryOp::RedNor:
            return ~evalExpr(*u.operand, 0).redOr();
          case UnaryOp::RedXnor:
            return ~evalExpr(*u.operand, 0).redXor();
        }
        panic("bad unary op");
      }
      case Expr::Kind::Binary:
        return evalBinary(static_cast<const BinaryExpr &>(expr), ctx);
      case Expr::Kind::Ternary: {
        const auto &t = static_cast<const TernaryExpr &>(expr);
        Value cond = evalExpr(*t.cond, 0).redOr();
        Value a = evalExpr(*t.then_expr, ctx);
        Value b = evalExpr(*t.else_expr, ctx);
        uint32_t w = std::max({a.width(), b.width(), ctx});
        return Value::ite(cond, a.resize(w), b.resize(w));
      }
      case Expr::Kind::Concat: {
        const auto &c = static_cast<const ConcatExpr &>(expr);
        Value acc;
        bool first = true;
        for (const auto &part : c.parts) {
            Value v = evalExpr(*part, 0);
            acc = first ? v : acc.concat(v);
            first = false;
        }
        return acc;
      }
      case Expr::Kind::Repl: {
        const auto &r = static_cast<const ReplExpr &>(expr);
        int64_t count =
            analysis::constEvalInt(*r.count, _table.params());
        return evalExpr(*r.inner, 0)
            .replicate(static_cast<uint32_t>(count));
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(expr);
        Value base = evalExpr(*ix.base, 0);
        int64_t lsb_off = 0;
        if (ix.base->kind == Expr::Kind::Ident) {
            const auto &name =
                static_cast<const IdentExpr &>(*ix.base).name;
            if (_table.isNet(name))
                lsb_off = _table.rangeOf(name).lsb;
        }
        Value idx = evalExpr(*ix.index, 0);
        if (idx.hasX())
            return Value::allX(1);
        int64_t pos = static_cast<int64_t>(
                          idx.width() <= 64
                              ? idx.toUint64()
                              : idx.slice(63, 0).toUint64()) -
                      lsb_off;
        if (pos < 0 || pos >= base.width())
            return Value::allX(1);
        return base.slice(static_cast<uint32_t>(pos),
                          static_cast<uint32_t>(pos));
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(expr);
        Value base = evalExpr(*r.base, 0);
        int64_t lsb_off = 0;
        if (r.base->kind == Expr::Kind::Ident) {
            const auto &name =
                static_cast<const IdentExpr &>(*r.base).name;
            if (_table.isNet(name))
                lsb_off = _table.rangeOf(name).lsb;
        }
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        if (lsb < 0 || msb >= base.width()) {
            return Value::allX(
                static_cast<uint32_t>(msb - lsb + 1));
        }
        return base.slice(static_cast<uint32_t>(msb),
                          static_cast<uint32_t>(lsb));
      }
    }
    panic("unknown expression kind");
}

Value
EventSimulator::evalBinary(const BinaryExpr &b, uint32_t ctx) const
{
    auto harmonized = [&](uint32_t w, Value &x, Value &y) {
        x = x.resize(w);
        y = y.resize(w);
    };

    switch (b.op) {
      case BinaryOp::LogicAnd:
        return evalExpr(*b.lhs, 0).redOr() &
               evalExpr(*b.rhs, 0).redOr();
      case BinaryOp::LogicOr:
        return evalExpr(*b.lhs, 0).redOr() |
               evalExpr(*b.rhs, 0).redOr();
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::CaseEq:
      case BinaryOp::CaseNe: {
        uint32_t w = std::max(analysis::exprWidth(*b.lhs, _table),
                              analysis::exprWidth(*b.rhs, _table));
        Value lhs = evalExpr(*b.lhs, w);
        Value rhs = evalExpr(*b.rhs, w);
        w = std::max({w, lhs.width(), rhs.width()});
        harmonized(w, lhs, rhs);
        switch (b.op) {
          case BinaryOp::Lt: return lhs.ult(rhs);
          case BinaryOp::Le: return lhs.ule(rhs);
          case BinaryOp::Gt: return rhs.ult(lhs);
          case BinaryOp::Ge: return rhs.ule(lhs);
          case BinaryOp::Eq: return lhs.eq(rhs);
          case BinaryOp::Ne: return lhs.ne(rhs);
          case BinaryOp::CaseEq: return lhs.caseEq(rhs);
          default: return ~lhs.caseEq(rhs);
        }
      }
      case BinaryOp::Shl:
      case BinaryOp::Shr:
      case BinaryOp::AShr: {
        Value lhs = evalExpr(*b.lhs, ctx);
        uint32_t w = std::max(lhs.width(), ctx);
        Value amount = evalExpr(*b.rhs, 0);
        harmonized(w, lhs, amount);
        switch (b.op) {
          case BinaryOp::Shl: return lhs.shl(amount);
          case BinaryOp::Shr: return lhs.lshr(amount);
          default: return lhs.ashr(amount);
        }
      }
      default:
        break;
    }

    Value lhs = evalExpr(*b.lhs, ctx);
    Value rhs = evalExpr(*b.rhs, ctx);
    uint32_t w = std::max({lhs.width(), rhs.width(), ctx});
    harmonized(w, lhs, rhs);
    switch (b.op) {
      case BinaryOp::Add: return lhs + rhs;
      case BinaryOp::Sub: return lhs - rhs;
      case BinaryOp::Mul: return lhs * rhs;
      case BinaryOp::Div: return lhs.udiv(rhs);
      case BinaryOp::Mod: return lhs.urem(rhs);
      case BinaryOp::BitAnd: return lhs & rhs;
      case BinaryOp::BitOr: return lhs | rhs;
      case BinaryOp::BitXor: return lhs ^ rhs;
      case BinaryOp::BitXnor: return ~(lhs ^ rhs);
      default:
        panic("unhandled binary op");
    }
}

ReplayResult
eventReplay(const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::IoTrace &io,
            bool reverse_order)
{
    EventSimulator sim(mod, library, clock, reverse_order);
    TraceBinding bind(sim.flattened(), clock, io.inputs, io.outputs);
    ReplayResult result{true, io.length(), {}};
    runEventCycles(sim, bind, io.input_rows, io.length(), [&](size_t cycle) {
        if (sim.unstable()) {
            result = {false, cycle, "<oscillation>"};
            return false;
        }
        for (size_t i = 0; i < bind.outputs.size(); ++i) {
            if (!sim.sampledOutput(bind.outputs[i])
                     .matches(io.output_rows[cycle][i])) {
                result = {false, cycle, io.outputs[i].name};
                return false;
            }
        }
        return true;
    });
    return result;
}

trace::IoTrace
eventRecord(const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::InputSequence &stim)
{
    EventSimulator sim(mod, library, clock);
    trace::IoTrace io;
    io.inputs = stim.inputs;
    for (const auto &port : sim.flattened().ports) {
        if (port.dir == PortDir::Output) {
            io.outputs.push_back(trace::Column{
                port.name, sim.get(port.name).width()});
        }
    }
    TraceBinding bind(sim.flattened(), clock, io.inputs, io.outputs);
    io.input_rows = stim.rows;
    runEventCycles(sim, bind, stim.rows, stim.length(), [&](size_t) {
        std::vector<Value> row;
        row.reserve(bind.outputs.size());
        for (size_t port : bind.outputs)
            row.push_back(sim.sampledOutput(port));
        io.output_rows.push_back(std::move(row));
        return true;
    });
    return io;
}

} // namespace rtlrepair::sim
