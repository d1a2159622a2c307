#include "sim/vec_sim.hpp"

#include <algorithm>

#include "analysis/const_eval.hpp"
#include "util/logging.hpp"
#include "verilog/ast_util.hpp"

namespace rtlrepair::sim {

using namespace verilog;
using analysis::ProcessInfo;
using bv::PackedValue;
using bv::Value;

namespace {

constexpr int kMaxDeltaRounds = 200;

/**
 * Per-net width cap: a packed signal costs 64x the scalar footprint
 * (two words per bit), so designs past this fall back to the scalar
 * simulator instead of ballooning memory.
 */
constexpr uint32_t kMaxVecNetWidth = 1u << 16;

PackedValue
adjustWidth(PackedValue v, uint32_t w)
{
    if (v.width() < w)
        return v.zext(w);
    if (v.width() > w)
        return v.slice(w - 1, 0);
    return v;
}

} // namespace

VecEventSimulator::VecEventSimulator(
    const Module &mod, const std::vector<const Module *> &library,
    std::string clock, uint32_t nlanes)
    : EventDesign(mod, library), _clock(std::move(clock))
{
    check(nlanes >= 1 && nlanes <= PackedValue::kLanes,
          "lane count out of range");
    _all = nlanes == 64 ? ~0ull : ((1ull << nlanes) - 1ull);
    for (const auto &[name, range] : _table.nets()) {
        if (range.width > kMaxVecNetWidth) {
            throw VecUnsupported("net too wide for vectorized "
                                 "simulation: " +
                                 name);
        }
    }
    powerOn();
}

void
VecEventSimulator::powerOn()
{
    _values.clear();
    _prev.clear();
    _changed.clear();
    _nba.clear();
    _nba_mask.clear();
    _sampled.clear();
    _unstable = 0;
    _frozen = 0;
    for (const auto &[name, range] : _table.nets()) {
        _values.emplace(name, PackedValue::allX(range.width));
        _prev.emplace(name, PackedValue::allX(range.width));
    }
    runInitialBlocks();
    for (const auto &[name, range] : _table.nets()) {
        (void)range;
        _changed[name] = _all;
    }
    settle();
}

void
VecEventSimulator::runInitialBlocks()
{
    for (const auto &item : _mod->items) {
        if (item->kind != Item::Kind::Initial)
            continue;
        const auto &blk = static_cast<const InitialBlock &>(*item);
        StmtPtr body = blk.body->clone();
        analysis::unrollFors(body, _table.params());
        execStmt(*body, _all);
    }
    for (const auto &[name, value] : _nba)
        writeSignal(name, value, _nba_mask.at(name));
    _nba.clear();
    _nba_mask.clear();
}

void
VecEventSimulator::setInput(const std::string &name,
                            const PackedValue &value, uint64_t mask)
{
    uint32_t w = _table.widthOf(name);
    if (value.width() == w)
        writeSignal(name, value, mask);
    else
        writeSignal(name, adjustWidth(value, w), mask);
}

PackedValue
VecEventSimulator::get(const std::string &name) const
{
    auto it = _values.find(name);
    if (it == _values.end())
        panic("unknown signal: " + name);
    return it->second;
}

const PackedValue &
VecEventSimulator::sampledOutput(size_t port) const
{
    check(port < _sampled.size() &&
              _mod->ports[port].dir == PortDir::Output,
          "output was not sampled");
    return _sampled[port];
}

uint32_t
VecEventSimulator::widthOf(const std::string &name) const
{
    return _table.widthOf(name);
}

void
VecEventSimulator::writeSignal(const std::string &name,
                               const PackedValue &value, uint64_t mask)
{
    mask &= _all & ~_frozen;
    if (!mask)
        return;
    auto it = _values.find(name);
    if (it == _values.end())
        panic("write to unknown signal: " + name);
    uint64_t diff = ~it->second.laneEq(value) & mask;
    if (!diff)
        return;
    it->second = PackedValue::blend(value, it->second, diff);
    _changed[name] |= diff;
}

void
VecEventSimulator::step()
{
    static const PackedValue clk0 =
        PackedValue::broadcast(Value::fromUint(1, 0));
    static const PackedValue clk1 =
        PackedValue::broadcast(Value::fromUint(1, 1));
    if (!_clock.empty())
        setInput(_clock, clk0, _all);
    settle();
    _sampled.resize(_mod->ports.size());
    for (size_t i = 0; i < _mod->ports.size(); ++i) {
        if (_mod->ports[i].dir == PortDir::Output)
            _sampled[i] = get(_mod->ports[i].name);
    }
    if (!_clock.empty()) {
        setInput(_clock, clk1, _all);
        settle();
    }
}

void
VecEventSimulator::settle()
{
    // Each live lane independently follows the scalar delta-cycle
    // loop: a lane with pending changes processes its batch this
    // round, a lane with only queued NBAs applies them this round, a
    // lane with neither is settled.  Because a write in one lane can
    // never mark a *different* lane changed, a settled lane stays
    // settled, so every still-active lane has been active since round
    // 0 and the global round counter doubles as each lane's own.
    uint64_t live = _all & ~_frozen;
    for (int round = 0;; ++round) {
        uint64_t changed = 0;
        for (const auto &[name, m] : _changed)
            changed |= m;
        changed &= live;
        uint64_t nba_lanes = 0;
        for (const auto &[name, m] : _nba_mask)
            nba_lanes |= m;
        nba_lanes &= live;
        uint64_t nba_now = nba_lanes & ~changed;
        uint64_t active = changed | nba_now;
        if (!active)
            return;
        if (round >= kMaxDeltaRounds) {
            _unstable |= active;
            logMessage(LogLevel::Info,
                       "event simulation did not settle "
                       "(oscillation)");
            return;
        }

        // Take this round's batch (only the lanes processing one).
        std::map<std::string, uint64_t> batch;
        for (auto it = _changed.begin(); it != _changed.end();) {
            uint64_t m = it->second & changed;
            uint64_t rest = it->second & ~changed;
            if (m)
                batch.emplace(it->first, m);
            if (rest) {
                it->second = rest;
                ++it;
            } else {
                it = _changed.erase(it);
            }
        }

        // NBA region for the lanes with nothing else pending; the
        // writes land in _changed and are processed next round, like
        // the scalar `continue`.
        if (nba_now) {
            for (auto it = _nba.begin(); it != _nba.end();) {
                const std::string &name = it->first;
                uint64_t &qmask = _nba_mask.at(name);
                uint64_t m = qmask & nba_now;
                if (m) {
                    writeSignal(name, it->second, m);
                    qmask &= ~m;
                }
                if (qmask == 0) {
                    _nba_mask.erase(name);
                    it = _nba.erase(it);
                } else {
                    ++it;
                }
            }
        }
        if (batch.empty())
            continue;

        // Edge detection on bit 0 of each batched signal.
        std::map<std::string, Transition> transitions;
        for (const auto &[name, m] : batch) {
            const PackedValue &now = _values.at(name);
            PackedValue &old = _prev.at(name);
            uint64_t nv = now.valAt(0), nu = now.unkAt(0);
            uint64_t ov = old.valAt(0), ou = old.unkAt(0);
            Transition t;
            t.pose = m & nv & ~ov;
            t.nege = m & ~nv & ~nu & (ov | ou);
            t.level = m & ((nv ^ ov) | (nu ^ ou));
            transitions.emplace(name, t);
            old = PackedValue::blend(now, old, m);
        }

        // Continuous assignments sensitive to the batch.
        for (size_t ai = 0; ai < _cont_assigns.size(); ++ai) {
            const ContAssign *assign = _cont_assigns[ai];
            uint64_t hit = 0;
            for (const auto &name : _cont_reads[ai]) {
                auto it = batch.find(name);
                if (it != batch.end())
                    hit |= it->second;
            }
            if (!hit)
                continue;
            std::string target = analysis::lhsBaseName(*assign->lhs);
            uint32_t ctx = _table.widthOf(target);
            assignNow(*assign->lhs, evalExpr(*assign->rhs, ctx), hit);
        }

        // Processes.
        for (const Proc &proc : _procs) {
            uint64_t trig = 0;
            if (proc.info.kind == ProcessInfo::Kind::Clocked) {
                for (const auto &sens : proc.block->sensitivity) {
                    auto t = transitions.find(sens.signal);
                    if (t == transitions.end())
                        continue;
                    if (sens.edge == SensItem::Edge::Posedge)
                        trig |= t->second.pose;
                    else if (sens.edge == SensItem::Edge::Negedge)
                        trig |= t->second.nege;
                    else if (sens.edge == SensItem::Edge::Level)
                        trig |= t->second.level;
                }
            } else {
                bool star = false;
                for (const auto &sens : proc.block->sensitivity) {
                    if (sens.edge == SensItem::Edge::Star)
                        star = true;
                }
                const std::set<std::string> &watch =
                    star ? proc.info.read : proc.info.listed;
                for (const auto &name : watch) {
                    auto it = batch.find(name);
                    if (it != batch.end())
                        trig |= it->second;
                }
            }
            if (trig)
                runProcess(proc, trig);
        }
    }
}

void
VecEventSimulator::runProcess(const Proc &proc, uint64_t mask)
{
    // As in the scalar simulator, a process evaluates atomically per
    // lane: a triggered lane whose assigned signal ends the run at
    // its pre-run value must not stay marked changed.
    std::map<std::string, PackedValue> pre;
    for (const auto &name : proc.info.assigned) {
        auto it = _values.find(name);
        if (it != _values.end())
            pre.emplace(name, it->second);
    }
    execStmt(*proc.body, mask);
    for (const auto &[name, before] : pre) {
        uint64_t same = mask & before.laneEq(_values.at(name));
        if (!same)
            continue;
        auto it = _changed.find(name);
        if (it == _changed.end())
            continue;
        it->second &= ~same;
        if (it->second == 0)
            _changed.erase(it);
    }
}

void
VecEventSimulator::execStmt(const Stmt &stmt, uint64_t mask)
{
    if (!mask)
        return;
    switch (stmt.kind) {
      case Stmt::Kind::Block:
        for (const auto &s :
             static_cast<const BlockStmt &>(stmt).stmts)
            execStmt(*s, mask);
        return;
      case Stmt::Kind::If: {
        const auto &i = static_cast<const IfStmt &>(stmt);
        PackedValue cond = evalExpr(*i.cond, 0);
        // X condition lanes take the else branch (cond is not true).
        uint64_t t = cond.laneTrue() & mask;
        execStmt(*i.then_stmt, t);
        if (i.else_stmt)
            execStmt(*i.else_stmt, mask & ~t);
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
        PackedValue subject = evalExpr(*c.subject, ctx);
        if (subject.width() < ctx)
            subject = subject.zext(ctx);
        uint64_t remaining = mask;
        for (const auto &item : c.items) {
            uint64_t hit = 0;
            for (const auto &label : item.labels) {
                if (!remaining)
                    break;
                PackedValue lv = adjustWidth(evalExpr(*label, ctx),
                                             ctx);
                hit |= remaining & caseMatch(subject, lv, c.mode);
                remaining &= ~hit;
            }
            if (hit)
                execStmt(*item.body, hit);
        }
        if (c.default_body && remaining)
            execStmt(*c.default_body, remaining);
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
            PackedValue rhs = evalExpr(*a.rhs, total);
            if (rhs.width() < total)
                rhs = rhs.zext(total);
            uint32_t off = total;
            for (size_t i = 0; i < c.parts.size(); ++i) {
                off -= widths[i];
                PackedValue piece =
                    rhs.slice(off + widths[i] - 1, off);
                if (a.blocking) {
                    assignNow(*c.parts[i], piece, mask);
                } else {
                    // The scalar simulator queues the raw piece as
                    // the signal's whole NBA entry; for a select part
                    // that rewrites the stored *width*, which has no
                    // lane-uniform packed representation.
                    if (c.parts[i]->kind != Expr::Kind::Ident) {
                        throw VecUnsupported(
                            "non-identifier part in non-blocking "
                            "concat assignment");
                    }
                    std::string name =
                        analysis::lhsBaseName(*c.parts[i]);
                    PackedValue target = nbaTarget(name);
                    _nba.insert_or_assign(
                        name,
                        PackedValue::blend(piece, target, mask));
                    _nba_mask[name] |= mask;
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
        PackedValue rhs = evalExpr(*a.rhs, ctx);
        if (a.blocking) {
            assignNow(*a.lhs, rhs, mask);
            return;
        }
        queueNba(*a.lhs, rhs, mask);
        return;
      }
      case Stmt::Kind::Empty:
        return;
      case Stmt::Kind::For:
        panic("for-loops are unrolled before event simulation");
    }
}

PackedValue
VecEventSimulator::nbaTarget(const std::string &name) const
{
    const PackedValue &cur = _values.at(name);
    auto it = _nba.find(name);
    if (it == _nba.end())
        return cur;
    return PackedValue::blend(it->second, cur, _nba_mask.at(name));
}

/**
 * Queue a non-blocking write: the RHS and any select index read
 * pre-edge values now; the merged full-signal value (per lane) is
 * queued for the NBA region.
 */
void
VecEventSimulator::queueNba(const Expr &lhs, const PackedValue &rhs,
                            uint64_t mask)
{
    std::string name = analysis::lhsBaseName(lhs);
    PackedValue target = nbaTarget(name);
    int64_t lsb_off = _table.rangeOf(name).lsb;
    switch (lhs.kind) {
      case Expr::Kind::Ident: {
        PackedValue v = adjustWidth(rhs, target.width());
        target = PackedValue::blend(v, target, mask);
        break;
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(lhs);
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        uint32_t pos =
            static_cast<uint32_t>(std::max<int64_t>(lsb, 0));
        uint32_t width = static_cast<uint32_t>(msb - lsb + 1);
        if (pos < target.width()) {
            PackedValue v = adjustWidth(rhs, width);
            for (uint32_t b = 0;
                 b < width && pos + b < target.width(); ++b) {
                target.setBitLanes(pos + b, v.valAt(b), v.unkAt(b),
                                   mask);
            }
        }
        break;
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(lhs);
        PackedValue idx = evalExpr(*ix.index, 0);
        PackedValue v = adjustWidth(rhs, 1);
        // Lanes whose index is X or out of range queue the entry but
        // write no bit, like the scalar out-of-range position.
        for (uint32_t pos = 0; pos < target.width(); ++pos) {
            uint64_t m =
                mask & idx.laneEqUint(static_cast<uint64_t>(
                           static_cast<int64_t>(pos) + lsb_off));
            if (m)
                target.setBitLanes(pos, v.valAt(0), v.unkAt(0), m);
        }
        break;
      }
      default:
        fatal("unsupported assignment target in event simulation");
    }
    _nba.insert_or_assign(name, std::move(target));
    _nba_mask[name] |= mask;
}

void
VecEventSimulator::assignNow(const Expr &lhs, const PackedValue &value,
                             uint64_t mask)
{
    std::string name = analysis::lhsBaseName(lhs);
    const PackedValue &full = _values.at(name);
    int64_t lsb_off = _table.rangeOf(name).lsb;
    switch (lhs.kind) {
      case Expr::Kind::Ident:
        writeSignal(name, adjustWidth(value, full.width()), mask);
        return;
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(lhs);
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        uint32_t pos =
            static_cast<uint32_t>(std::max<int64_t>(lsb, 0));
        uint32_t width = static_cast<uint32_t>(msb - lsb + 1);
        if (pos >= full.width())
            return; // fully out of range: no write
        PackedValue v = adjustWidth(value, width);
        PackedValue merged = full;
        for (uint32_t b = 0; b < width && pos + b < full.width(); ++b)
            merged.setBitLanes(pos + b, v.valAt(b), v.unkAt(b), mask);
        writeSignal(name, merged, mask);
        return;
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(lhs);
        PackedValue idx = evalExpr(*ix.index, 0);
        PackedValue v = adjustWidth(value, 1);
        PackedValue merged = full;
        uint64_t wrote = 0;
        for (uint32_t pos = 0; pos < full.width(); ++pos) {
            uint64_t m =
                mask & idx.laneEqUint(static_cast<uint64_t>(
                           static_cast<int64_t>(pos) + lsb_off));
            if (m) {
                merged.setBitLanes(pos, v.valAt(0), v.unkAt(0), m);
                wrote |= m;
            }
        }
        if (wrote)
            writeSignal(name, merged, wrote);
        return;
      }
      default:
        fatal("unsupported assignment target in event simulation");
    }
}

uint64_t
VecEventSimulator::caseMatch(const PackedValue &subject,
                             const PackedValue &label,
                             CaseStmt::Mode mode) const
{
    check(subject.width() == label.width(),
          "caseEq: width mismatch");
    uint64_t mismatch = 0;
    for (uint32_t p = 0; p < subject.width(); ++p) {
        uint64_t sv = subject.valAt(p), su = subject.unkAt(p);
        uint64_t lv = label.valAt(p), lu = label.unkAt(p);
        switch (mode) {
          case CaseStmt::Mode::Plain:
            mismatch |= (sv ^ lv) | (su ^ lu);
            break;
          case CaseStmt::Mode::CaseZ:
            // Label X/Z bits are wildcards; an X subject bit against
            // a known label bit is a mismatch.
            mismatch |= ~lu & (su | (sv ^ lv));
            break;
          case CaseStmt::Mode::CaseX:
            mismatch |= ~lu & ~su & (sv ^ lv);
            break;
        }
    }
    return ~mismatch;
}

PackedValue
VecEventSimulator::evalExpr(const Expr &expr, uint32_t ctx) const
{
    switch (expr.kind) {
      case Expr::Kind::Ident: {
        const auto &name = static_cast<const IdentExpr &>(expr).name;
        auto param = _table.params().find(name);
        if (param != _table.params().end())
            return PackedValue::broadcast(param->second);
        auto it = _values.find(name);
        if (it == _values.end())
            panic("read of unknown signal: " + name);
        return it->second;
      }
      case Expr::Kind::Literal:
        return PackedValue::broadcast(
            static_cast<const LiteralExpr &>(expr).value);
      case Expr::Kind::Call:
        panic("function call survived lowering");
      case Expr::Kind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(expr);
        switch (u.op) {
          case UnaryOp::BitNot: {
            PackedValue v = evalExpr(*u.operand, ctx);
            if (v.width() < ctx)
                v = v.zext(ctx);
            return ~v;
          }
          case UnaryOp::LogicNot:
            return ~evalExpr(*u.operand, 0).redOr();
          case UnaryOp::Minus: {
            PackedValue v = evalExpr(*u.operand, ctx);
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
        PackedValue cond = evalExpr(*t.cond, 0).redOr();
        PackedValue a = evalExpr(*t.then_expr, ctx);
        PackedValue b = evalExpr(*t.else_expr, ctx);
        uint32_t w = std::max({a.width(), b.width(), ctx});
        return PackedValue::ite(cond, adjustWidth(std::move(a), w),
                                adjustWidth(std::move(b), w));
      }
      case Expr::Kind::Concat: {
        const auto &c = static_cast<const ConcatExpr &>(expr);
        PackedValue acc;
        bool first = true;
        for (const auto &part : c.parts) {
            PackedValue v = evalExpr(*part, 0);
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
        PackedValue base = evalExpr(*ix.base, 0);
        int64_t lsb_off = 0;
        if (ix.base->kind == Expr::Kind::Ident) {
            const auto &name =
                static_cast<const IdentExpr &>(*ix.base).name;
            if (_table.isNet(name))
                lsb_off = _table.rangeOf(name).lsb;
        }
        PackedValue idx = evalExpr(*ix.index, 0);
        // Per-position gather: lanes whose index selects no valid
        // position (X index, out of range) stay X.
        PackedValue res = PackedValue::allX(1);
        for (uint32_t pos = 0; pos < base.width(); ++pos) {
            uint64_t m = idx.laneEqUint(static_cast<uint64_t>(
                static_cast<int64_t>(pos) + lsb_off));
            if (m)
                res.setBitLanes(0, base.valAt(pos), base.unkAt(pos),
                                m);
        }
        return res;
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(expr);
        PackedValue base = evalExpr(*r.base, 0);
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
            return PackedValue::allX(
                static_cast<uint32_t>(msb - lsb + 1));
        }
        return base.slice(static_cast<uint32_t>(msb),
                          static_cast<uint32_t>(lsb));
      }
    }
    panic("unknown expression kind");
}

PackedValue
VecEventSimulator::evalBinary(const BinaryExpr &b, uint32_t ctx) const
{
    auto harmonized = [](uint32_t w, PackedValue &x, PackedValue &y) {
        x = adjustWidth(std::move(x), w);
        y = adjustWidth(std::move(y), w);
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
        PackedValue lhs = evalExpr(*b.lhs, w);
        PackedValue rhs = evalExpr(*b.rhs, w);
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
        PackedValue lhs = evalExpr(*b.lhs, ctx);
        uint32_t w = std::max(lhs.width(), ctx);
        PackedValue amount = evalExpr(*b.rhs, 0);
        lhs = adjustWidth(std::move(lhs), w);
        amount = adjustWidth(std::move(amount), w);
        switch (b.op) {
          case BinaryOp::Shl: return lhs.shl(amount);
          case BinaryOp::Shr: return lhs.lshr(amount);
          default: return lhs.ashr(amount);
        }
      }
      default:
        break;
    }

    PackedValue lhs = evalExpr(*b.lhs, ctx);
    PackedValue rhs = evalExpr(*b.rhs, ctx);
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

// ----------------------------------------------------------------
// Batch drivers.
// ----------------------------------------------------------------

namespace {

bool
sameColumns(const std::vector<trace::Column> &a,
            const std::vector<trace::Column> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].width != b[i].width)
            return false;
    }
    return true;
}

/** Can @p a and @p b share one vectorized chunk? */
bool
sameShape(const trace::IoTrace &a, const trace::IoTrace &b)
{
    return sameColumns(a.inputs, b.inputs) &&
           sameColumns(a.outputs, b.outputs);
}

bool
sameShape(const trace::InputSequence &a, const trace::InputSequence &b)
{
    return sameColumns(a.inputs, b.inputs);
}

const std::vector<std::vector<Value>> &
inputRows(const trace::IoTrace &io)
{
    return io.input_rows;
}

const std::vector<std::vector<Value>> &
inputRows(const trace::InputSequence &stim)
{
    return stim.rows;
}

/**
 * The vectorized cycle loop over one <=64-lane chunk: lane l drives
 * the input rows of @p traces[l] through @p bind.  After each cycle's
 * outputs are sampled, @p sampled(cycle, active) returns the lanes
 * that stop there; a lane also stops after its last row.
 */
template <class Trace, class Sampled>
void
runChunk(VecEventSimulator &sim, const TraceBinding &bind,
         const std::vector<const Trace *> &traces, Sampled &&sampled)
{
    uint32_t n = static_cast<uint32_t>(traces.size());
    const auto &ports = sim.flattened().ports;
    std::vector<size_t> len(n);
    size_t max_len = 0;
    uint64_t done = 0;
    for (uint32_t l = 0; l < n; ++l) {
        len[l] = traces[l]->length();
        max_len = std::max(max_len, len[l]);
        if (len[l] == 0)
            done |= 1ull << l;
    }
    sim.freezeLanes(done);

    std::vector<const Value *> vptr(n, nullptr);
    for (size_t cycle = 0; cycle < max_len; ++cycle) {
        uint64_t active = sim.allLanes() & ~done;
        if (!active)
            break;
        for (size_t i = 0; i < bind.inputs.size(); ++i) {
            if (bind.inputs[i] == TraceBinding::kUnbound)
                continue;
            const std::string &name = ports[bind.inputs[i]].name;
            for (uint32_t l = 0; l < n; ++l) {
                vptr[l] = cycle < len[l]
                              ? &inputRows(*traces[l])[cycle][i]
                              : nullptr;
            }
            sim.setInput(name,
                         PackedValue::pack(vptr.data(), n,
                                           sim.widthOf(name)),
                         active);
        }
        sim.step();
        uint64_t stopped = sampled(cycle, active);
        for (uint32_t l = 0; l < n; ++l) {
            if (((active >> l) & 1) && cycle + 1 == len[l])
                stopped |= 1ull << l;
        }
        done |= stopped;
        sim.freezeLanes(stopped);
    }
}

/** Replay one <=64-lane chunk; @throws VecUnsupported. */
void
vecChunk(const Module &mod, const std::vector<const Module *> &library,
         const std::string &clock,
         const std::vector<const trace::IoTrace *> &traces,
         ReplayResult *out)
{
    uint32_t n = static_cast<uint32_t>(traces.size());
    VecEventSimulator sim(mod, library, clock, n);
    const auto &out_cols = traces[0]->outputs;
    TraceBinding bind(sim.flattened(), clock, traces[0]->inputs,
                      out_cols);
    for (uint32_t l = 0; l < n; ++l)
        out[l].first_failure = traces[l]->length(); // passed
    auto fail = [&](uint64_t lanes, size_t cycle,
                    const std::string &output) {
        for (uint32_t l = 0; l < n; ++l) {
            if ((lanes >> l) & 1)
                out[l] = {false, cycle, output};
        }
    };
    std::vector<const Value *> vptr(n, nullptr);
    runChunk(sim, bind, traces, [&](size_t cycle, uint64_t active) {
        uint64_t stopped = sim.unstableLanes() & active;
        fail(stopped, cycle, "<oscillation>");
        active &= ~stopped;
        for (size_t i = 0; i < bind.outputs.size() && active; ++i) {
            const PackedValue &got = sim.sampledOutput(bind.outputs[i]);
            uint32_t w = got.width();
            for (uint32_t l = 0; l < n; ++l) {
                if (cycle < traces[l]->length()) {
                    vptr[l] = &traces[l]->output_rows[cycle][i];
                    w = std::max(w, vptr[l]->width());
                } else {
                    vptr[l] = nullptr;
                }
            }
            PackedValue expected = PackedValue::pack(vptr.data(), n, w);
            uint64_t mismatch = active & ~got.laneMatches(expected);
            fail(mismatch, cycle, out_cols[i].name);
            stopped |= mismatch;
            active &= ~mismatch;
        }
        return stopped;
    });
}

/** Record one <=64-lane chunk; @throws VecUnsupported. */
void
vecChunk(const Module &mod, const std::vector<const Module *> &library,
         const std::string &clock,
         const std::vector<const trace::InputSequence *> &stims,
         trace::IoTrace *out)
{
    uint32_t n = static_cast<uint32_t>(stims.size());
    VecEventSimulator sim(mod, library, clock, n);
    std::vector<trace::Column> out_cols;
    for (const auto &port : sim.flattened().ports) {
        if (port.dir == PortDir::Output)
            out_cols.push_back(
                trace::Column{port.name, sim.get(port.name).width()});
    }
    TraceBinding bind(sim.flattened(), clock, stims[0]->inputs,
                      out_cols);
    for (uint32_t l = 0; l < n; ++l) {
        out[l].inputs = stims[l]->inputs;
        out[l].outputs = out_cols;
    }
    std::vector<const PackedValue *> samples(out_cols.size());
    runChunk(sim, bind, stims, [&](size_t cycle, uint64_t active) {
        for (size_t i = 0; i < samples.size(); ++i)
            samples[i] = &sim.sampledOutput(bind.outputs[i]);
        for (uint32_t l = 0; l < n; ++l) {
            if (!((active >> l) & 1))
                continue;
            out[l].input_rows.push_back(stims[l]->rows[cycle]);
            std::vector<Value> row;
            row.reserve(samples.size());
            for (const PackedValue *sample : samples)
                row.push_back(sample->lane(l));
            out[l].output_rows.push_back(std::move(row));
        }
        return uint64_t{0};
    });
}

/** @name The scalar simulator's run of one trace. @{ */
ReplayResult
scalarRun(const Module &mod, const std::vector<const Module *> &library,
          const std::string &clock, const trace::IoTrace &io)
{
    return eventReplay(mod, library, clock, io);
}

trace::IoTrace
scalarRun(const Module &mod, const std::vector<const Module *> &library,
          const std::string &clock, const trace::InputSequence &stim)
{
    return eventRecord(mod, library, clock, stim);
}
/** @} */

/**
 * Run @p traces through the vectorized simulator 64 lanes at a time;
 * a chunk whose traces differ in column structure, or whose design
 * throws VecUnsupported, runs on the scalar simulator.
 */
template <class Out, class Trace>
std::vector<Out>
vecBatch(const Module &mod, const std::vector<const Module *> &library,
         const std::string &clock,
         const std::vector<const Trace *> &traces)
{
    std::vector<Out> out(traces.size());
    for (size_t base = 0; base < traces.size();
         base += PackedValue::kLanes) {
        size_t n = std::min<size_t>(PackedValue::kLanes,
                                    traces.size() - base);
        std::vector<const Trace *> chunk(traces.begin() + base,
                                         traces.begin() + base + n);
        bool compatible = true;
        for (size_t i = 1; i < n; ++i)
            compatible = compatible && sameShape(*chunk[i], *chunk[0]);
        if (compatible) {
            try {
                vecChunk(mod, library, clock, chunk, out.data() + base);
                continue;
            } catch (const VecUnsupported &) {
                // fall through to the scalar simulator
            }
        }
        for (size_t i = 0; i < n; ++i)
            out[base + i] = scalarRun(mod, library, clock, *chunk[i]);
    }
    return out;
}

/** The vectorized backend for batches, unless Event is requested or
 *  Auto meets a single trace. */
template <class Out, class Trace>
std::vector<Out>
dispatchBatch(SimBackend backend, const Module &mod,
              const std::vector<const Module *> &library,
              const std::string &clock,
              const std::vector<const Trace *> &traces)
{
    SimBackend resolved = resolveSimBackend(backend);
    if (resolved == SimBackend::Vec ||
        (resolved == SimBackend::Auto && traces.size() > 1))
        return vecBatch<Out>(mod, library, clock, traces);
    std::vector<Out> out;
    out.reserve(traces.size());
    for (const Trace *t : traces)
        out.push_back(scalarRun(mod, library, clock, *t));
    return out;
}

} // namespace

std::vector<ReplayResult>
vecEventReplayBatch(const Module &mod,
                    const std::vector<const Module *> &library,
                    const std::string &clock,
                    const std::vector<const trace::IoTrace *> &traces)
{
    return vecBatch<ReplayResult>(mod, library, clock, traces);
}

std::vector<trace::IoTrace>
vecEventRecordBatch(
    const Module &mod, const std::vector<const Module *> &library,
    const std::string &clock,
    const std::vector<const trace::InputSequence *> &stims)
{
    return vecBatch<trace::IoTrace>(mod, library, clock, stims);
}

ReplayResult
replayTrace(SimBackend backend, const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::IoTrace &io)
{
    return replayTraceBatch(backend, mod, library, clock, {&io})[0];
}

trace::IoTrace
recordTrace(SimBackend backend, const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::InputSequence &stim)
{
    return std::move(
        recordTraceBatch(backend, mod, library, clock, {&stim})[0]);
}

std::vector<ReplayResult>
replayTraceBatch(SimBackend backend, const Module &mod,
                 const std::vector<const Module *> &library,
                 const std::string &clock,
                 const std::vector<const trace::IoTrace *> &traces)
{
    return dispatchBatch<ReplayResult>(backend, mod, library, clock,
                                       traces);
}

std::vector<trace::IoTrace>
recordTraceBatch(SimBackend backend, const Module &mod,
                 const std::vector<const Module *> &library,
                 const std::string &clock,
                 const std::vector<const trace::InputSequence *> &stims)
{
    return dispatchBatch<trace::IoTrace>(backend, mod, library, clock,
                                         stims);
}

} // namespace rtlrepair::sim
