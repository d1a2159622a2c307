#include "analysis/const_eval.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::analysis {

using namespace verilog;
using bv::Value;

namespace {

/** Extend both values to a common width. */
void
harmonize(Value &a, Value &b)
{
    uint32_t w = std::max(a.width(), b.width());
    if (a.width() < w)
        a = a.zext(w);
    if (b.width() < w)
        b = b.zext(w);
}

std::optional<Value>
evalBinary(BinaryOp op, Value lhs, Value rhs)
{
    switch (op) {
      case BinaryOp::Shl:
        return lhs.shl(rhs.resize(lhs.width()));
      case BinaryOp::Shr:
        return lhs.lshr(rhs.resize(lhs.width()));
      case BinaryOp::AShr:
        return lhs.ashr(rhs.resize(lhs.width()));
      default:
        break;
    }
    harmonize(lhs, rhs);
    switch (op) {
      case BinaryOp::Add: return lhs + rhs;
      case BinaryOp::Sub: return lhs - rhs;
      case BinaryOp::Mul: return lhs * rhs;
      case BinaryOp::Div: return lhs.udiv(rhs);
      case BinaryOp::Mod: return lhs.urem(rhs);
      case BinaryOp::BitAnd: return lhs & rhs;
      case BinaryOp::BitOr: return lhs | rhs;
      case BinaryOp::BitXor: return lhs ^ rhs;
      case BinaryOp::BitXnor: return ~(lhs ^ rhs);
      case BinaryOp::LogicAnd: return lhs.redOr() & rhs.redOr();
      case BinaryOp::LogicOr: return lhs.redOr() | rhs.redOr();
      case BinaryOp::Lt: return lhs.ult(rhs);
      case BinaryOp::Le: return lhs.ule(rhs);
      case BinaryOp::Gt: return rhs.ult(lhs);
      case BinaryOp::Ge: return rhs.ule(lhs);
      case BinaryOp::Eq: return lhs.eq(rhs);
      case BinaryOp::Ne: return lhs.ne(rhs);
      case BinaryOp::CaseEq: return lhs.caseEq(rhs);
      case BinaryOp::CaseNe: {
        Value eq = lhs.caseEq(rhs);
        return ~eq;
      }
      default:
        return std::nullopt;
    }
}

} // namespace

std::optional<Value>
tryConstEval(const Expr &expr, const ConstEnv &env)
{
    switch (expr.kind) {
      case Expr::Kind::Literal:
        return static_cast<const LiteralExpr &>(expr).value;
      case Expr::Kind::Ident: {
        auto it = env.find(static_cast<const IdentExpr &>(expr).name);
        if (it == env.end())
            return std::nullopt;
        return it->second;
      }
      case Expr::Kind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(expr);
        auto v = tryConstEval(*u.operand, env);
        if (!v)
            return std::nullopt;
        switch (u.op) {
          case UnaryOp::BitNot: return ~*v;
          case UnaryOp::LogicNot: return ~v->redOr();
          case UnaryOp::Minus: return v->negate();
          case UnaryOp::Plus: return v;
          case UnaryOp::RedAnd: return v->redAnd();
          case UnaryOp::RedOr: return v->redOr();
          case UnaryOp::RedXor: return v->redXor();
          case UnaryOp::RedNand: return ~v->redAnd();
          case UnaryOp::RedNor: return ~v->redOr();
          case UnaryOp::RedXnor: return ~v->redXor();
        }
        return std::nullopt;
      }
      case Expr::Kind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(expr);
        auto lhs = tryConstEval(*b.lhs, env);
        auto rhs = tryConstEval(*b.rhs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        return evalBinary(b.op, std::move(*lhs), std::move(*rhs));
      }
      case Expr::Kind::Ternary: {
        const auto &t = static_cast<const TernaryExpr &>(expr);
        auto cond = tryConstEval(*t.cond, env);
        if (!cond)
            return std::nullopt;
        Value truth = cond->redOr();
        if (truth.hasX())
            return std::nullopt;
        return truth.isNonZero() ? tryConstEval(*t.then_expr, env)
                                 : tryConstEval(*t.else_expr, env);
      }
      case Expr::Kind::Concat: {
        const auto &c = static_cast<const ConcatExpr &>(expr);
        std::optional<Value> acc;
        for (const auto &part : c.parts) {
            auto v = tryConstEval(*part, env);
            if (!v)
                return std::nullopt;
            acc = acc ? acc->concat(*v) : *v;
        }
        return acc;
      }
      case Expr::Kind::Repl: {
        const auto &r = static_cast<const ReplExpr &>(expr);
        auto count = tryConstEval(*r.count, env);
        auto inner = tryConstEval(*r.inner, env);
        if (!count || !inner)
            return std::nullopt;
        if (count->hasX())
            fatal("replication count is unknown");
        return inner->replicate(
            static_cast<uint32_t>(count->toUint64()));
      }
      case Expr::Kind::Index: {
        const auto &i = static_cast<const IndexExpr &>(expr);
        auto base = tryConstEval(*i.base, env);
        auto index = tryConstEval(*i.index, env);
        if (!base || !index || index->hasX())
            return std::nullopt;
        uint64_t bit = index->toUint64();
        if (bit >= base->width())
            return Value::allX(1);
        return base->slice(static_cast<uint32_t>(bit),
                           static_cast<uint32_t>(bit));
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(expr);
        auto base = tryConstEval(*r.base, env);
        auto msb = tryConstEval(*r.msb, env);
        auto lsb = tryConstEval(*r.lsb, env);
        if (!base || !msb || !lsb || msb->hasX() || lsb->hasX())
            return std::nullopt;
        uint64_t hi = msb->toUint64(), lo = lsb->toUint64();
        if (hi < lo || hi >= base->width())
            return std::nullopt;
        return base->slice(static_cast<uint32_t>(hi),
                           static_cast<uint32_t>(lo));
      }
      case Expr::Kind::Call:
        // Function calls are inlined during lowering; before that
        // they are never compile-time constants.
        return std::nullopt;
    }
    return std::nullopt;
}

Value
constEval(const Expr &expr, const ConstEnv &env)
{
    auto v = tryConstEval(expr, env);
    if (!v)
        fatal("expression is not a compile-time constant");
    return *v;
}

int64_t
constEvalInt(const Expr &expr, const ConstEnv &env)
{
    Value v = constEval(expr, env);
    if (v.hasX())
        fatal("constant contains X bits where an integer is required");
    uint64_t raw = v.width() <= 64
                       ? v.toUint64()
                       : v.slice(63, 0).toUint64();
    return static_cast<int64_t>(raw);
}

} // namespace rtlrepair::analysis
