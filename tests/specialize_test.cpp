// Tests for ir::specialize, the exact partial evaluator behind
// candidate replay: specialized replays match replays of the
// unspecialized system on every registry design and template, only
// 4-state-exact folds are applied, and dead change sites fold away.
#include <gtest/gtest.h>

#include <map>

#include "benchmarks/registry.hpp"
#include "elaborate/elaborate.hpp"
#include "ir/builder.hpp"
#include "ir/specialize.hpp"
#include "repair/windowing.hpp"
#include "sim/interpreter.hpp"
#include "templates/preprocess.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace rtlrepair;
using bv::Value;
using ir::Builder;
using ir::NodeKind;
using ir::NodeRef;
using templates::SynthAssignment;

namespace {

/** Replays are compared on a trace prefix: exactness does not depend
 *  on trace length, and the long-trace designs would dominate the
 *  suite's run time otherwise. */
constexpr size_t kPrefix = 256;

trace::IoTrace
prefixOf(const trace::IoTrace &io, size_t cycles)
{
    trace::IoTrace out;
    out.inputs = io.inputs;
    out.outputs = io.outputs;
    size_t n = std::min(cycles, io.length());
    out.input_rows.assign(io.input_rows.begin(),
                          io.input_rows.begin() + n);
    out.output_rows.assign(io.output_rows.begin(),
                           io.output_rows.begin() + n);
    return out;
}

/** The reset state sim::replay starts from (init, or X). */
std::vector<Value>
resetStates(const ir::TransitionSystem &sys)
{
    std::vector<Value> out;
    for (const auto &st : sys.states)
        out.push_back(st.init ? *st.init : Value::allX(st.width));
    return out;
}

/** Reference: the unspecialized system with the synthesis variables
 *  bound as runtime inputs. */
sim::ReplayResult
referenceReplay(const ir::TransitionSystem &sys,
                const SynthAssignment &assignment,
                const trace::IoTrace &io)
{
    sim::Interpreter interp(sys);
    for (size_t i = 0; i < sys.synth_vars.size(); ++i) {
        auto it = assignment.values.find(sys.synth_vars[i].name);
        if (it != assignment.values.end())
            interp.setSynthVar(i, it->second);
    }
    return sim::replay(interp, io);
}

SynthAssignment
constantAssignment(const ir::TransitionSystem &sys, bool ones)
{
    SynthAssignment a;
    for (const auto &v : sys.synth_vars)
        a.values[v.name] = ones ? Value::ones(v.width)
                                : Value::zeros(v.width);
    return a;
}

/** Only φ number @p phi set (every other variable zero). */
SynthAssignment
singlePhi(const ir::TransitionSystem &sys, size_t phi)
{
    SynthAssignment a = constantAssignment(sys, false);
    a.values[sys.synth_vars[phi].name] =
        Value::ones(sys.synth_vars[phi].width);
    return a;
}

SynthAssignment
randomAssignment(const ir::TransitionSystem &sys, Rng &rng)
{
    SynthAssignment a;
    for (const auto &v : sys.synth_vars)
        a.values[v.name] = Value::random(v.width, rng);
    return a;
}

void
expectSameReplay(const sim::ReplayResult &got,
                 const sim::ReplayResult &want, const std::string &what)
{
    EXPECT_EQ(got.passed, want.passed) << what;
    EXPECT_EQ(got.first_failure, want.first_failure) << what;
    EXPECT_EQ(got.failed_output, want.failed_output) << what;
}

/** One template-instrumented registry design. */
struct Instrumented
{
    std::string label;
    ir::TransitionSystem sys;
};

/** Every registry design × standard template that instruments at
 *  least one change site and elaborates. */
std::vector<Instrumented>
instrumentedRegistry()
{
    std::vector<Instrumented> out;
    for (const auto &def : benchmarks::all()) {
        const benchmarks::LoadedBenchmark &lb = benchmarks::load(def);
        templates::PreprocessResult pre = templates::preprocess(*lb.buggy);
        for (const auto &tmpl : templates::standardTemplates()) {
            templates::TemplateResult inst;
            elaborate::ElaborateOptions opts;
            opts.library = lb.buggy_lib;
            try {
                inst = tmpl->apply(*pre.module, lb.buggy_lib);
                if (inst.vars.empty())
                    continue;
                opts.synth_vars = inst.vars.specs();
                out.push_back({def.name + "/" + tmpl->name(),
                               elaborate::elaborate(*inst.instrumented,
                                                    opts)});
            } catch (const FatalError &) {
                continue;  // instrumented design not synthesizable
            }
        }
    }
    return out;
}

const std::vector<Instrumented> &
registrySystems()
{
    static const std::vector<Instrumented> systems =
        instrumentedRegistry();
    return systems;
}

const trace::IoTrace &
registryTrace(const std::string &label)
{
    static std::map<std::string, trace::IoTrace> traces;
    std::string name = label.substr(0, label.find('/'));
    auto it = traces.find(name);
    if (it == traces.end()) {
        it = traces
                 .emplace(name, prefixOf(benchmarks::load(name).tb,
                                         kPrefix))
                 .first;
    }
    return it->second;
}

TEST(Specialize, ReplayMatchesUnspecializedOnRegistry)
{
    ASSERT_FALSE(registrySystems().empty());
    Rng rng(2024);
    for (const auto &inst : registrySystems()) {
        const ir::TransitionSystem &sys = inst.sys;
        const trace::IoTrace &io = registryTrace(inst.label);
        repair::ConcreteRunner runner(sys, io, resetStates(sys));
        std::vector<std::pair<std::string, SynthAssignment>> cases;
        cases.push_back({"all-off", SynthAssignment{}});
        cases.push_back({"zeros", constantAssignment(sys, false)});
        cases.push_back({"ones", constantAssignment(sys, true)});
        for (size_t i = 0; i < sys.synth_vars.size(); ++i) {
            if (sys.synth_vars[i].is_phi) {
                cases.push_back({"phi " + sys.synth_vars[i].name,
                                 singlePhi(sys, i)});
            }
        }
        for (int r = 0; r < 3; ++r) {
            cases.push_back({"random " + std::to_string(r),
                             randomAssignment(sys, rng)});
        }
        for (const auto &[what, a] : cases) {
            expectSameReplay(runner.run(a), referenceReplay(sys, a, io),
                             inst.label + " " + what);
        }
    }
}

TEST(Specialize, BatchStopsAtFirstPass)
{
    Builder b("pass");
    // A one-output system whose synthesis variable picks the output:
    // candidates with s = 1 match an all-ones trace.
    NodeRef s = b.synthVar("s", 1, true);
    b.addOutput("o", s);
    ir::TransitionSystem sys = b.finish();
    trace::IoTrace io;
    io.outputs.push_back(trace::Column{"o", 1});
    for (int c = 0; c < 4; ++c) {
        io.input_rows.emplace_back();
        io.output_rows.push_back({Value::ones(1)});
    }
    std::vector<SynthAssignment> batch(4);
    batch[0].values["s"] = Value::zeros(1);
    batch[1].values["s"] = Value::ones(1);
    batch[2].values["s"] = Value::zeros(1);
    batch[3].values["s"] = Value::ones(1);
    repair::ConcreteRunner runner(sys, io, {});
    std::vector<sim::ReplayResult> out = runner.runBatch(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_FALSE(out[0].passed);
    EXPECT_EQ(out[0].first_failure, 0u);
    EXPECT_TRUE(out[1].passed);
    EXPECT_EQ(out[1].first_failure, 4u);
}

/** Evaluate output 0 of @p sys for one cycle. */
Value
evalOutput(const ir::TransitionSystem &sys,
           const std::vector<Value> &inputs)
{
    sim::Interpreter interp(sys);
    for (size_t i = 0; i < inputs.size(); ++i)
        interp.setInput(i, inputs[i]);
    interp.evalCycle();
    return interp.output(0);
}

size_t
countKind(const ir::TransitionSystem &sys, NodeKind kind)
{
    size_t n = 0;
    for (const auto &node : sys.nodes)
        n += node.kind == kind;
    return n;
}

TEST(Specialize, XConditionKeepsItsIte)
{
    Builder b("ite");
    NodeRef c = b.synthVar("c", 1, true);
    NodeRef t = b.input("t", 4);
    NodeRef e = b.input("e", 4);
    b.addOutput("o", b.ite(c, t, e));
    ir::TransitionSystem sys = b.finish();

    ir::TransitionSystem x = ir::specialize(sys, {Value::allX(1)});
    x.typeCheck();
    EXPECT_EQ(countKind(x, NodeKind::Ite), 1u);
    Value got = evalOutput(
        x, {Value::fromUint(4, 0b1100), Value::fromUint(4, 0b1010)});
    EXPECT_EQ(got, Value::ite(Value::allX(1), Value::fromUint(4, 0b1100),
                              Value::fromUint(4, 0b1010)));
    EXPECT_TRUE(got.hasX());

    // A known condition selects its arm; the other input is dropped.
    ir::TransitionSystem one = ir::specialize(sys, {Value::ones(1)});
    EXPECT_EQ(countKind(one, NodeKind::Ite), 0u);
    EXPECT_EQ(one.outputs[0].ref, one.inputs[0].ref);
    EXPECT_EQ(one.inputs[1].ref, ir::kNullRef);
    EXPECT_EQ(one.synth_vars[0].ref, ir::kNullRef);
}

TEST(Specialize, AddZeroStaysAllX)
{
    Builder b("add");
    NodeRef z = b.synthVar("z", 4, false);
    NodeRef x = b.input("x", 4);
    b.addOutput("o", b.binary(NodeKind::Add, x, z));
    ir::TransitionSystem sys = b.finish();

    ir::TransitionSystem spec = ir::specialize(sys, {Value::zeros(4)});
    spec.typeCheck();
    // Not folded to x: with an X bit in x, x + 0 is all-X.
    EXPECT_EQ(countKind(spec, NodeKind::Add), 1u);
    Value partial = Value::fromUint(4, 0b0101);
    partial.setBit(3, -1);
    EXPECT_EQ(evalOutput(spec, {partial}), Value::allX(4));
    EXPECT_EQ(evalOutput(spec, {Value::fromUint(4, 9)}),
              Value::fromUint(4, 9));
}

TEST(Specialize, DominatingAndOrOperandsFold)
{
    Builder b("andor");
    NodeRef z = b.synthVar("z", 4, false);
    NodeRef x = b.input("x", 4);
    b.addOutput("and", b.binary(NodeKind::And, z, x));
    b.addOutput("or", b.binary(NodeKind::Or, x, z));
    ir::TransitionSystem sys = b.finish();

    ir::TransitionSystem zero = ir::specialize(sys, {Value::zeros(4)});
    zero.typeCheck();
    // 0 & X = 0: the and folds to a constant, x is dead there.
    EXPECT_EQ(countKind(zero, NodeKind::And), 0u);
    EXPECT_EQ(evalOutput(zero, {Value::allX(4)}), Value::zeros(4));
    // x | 0 is not a dominating fold and stays (X | 0 = X).
    EXPECT_EQ(countKind(zero, NodeKind::Or), 1u);

    ir::TransitionSystem ones = ir::specialize(sys, {Value::ones(4)});
    EXPECT_EQ(countKind(ones, NodeKind::Or), 0u);
    EXPECT_EQ(countKind(ones, NodeKind::And), 1u);
    sim::Interpreter interp(ones);
    interp.setInput(0, Value::allX(4));
    interp.evalCycle();
    EXPECT_EQ(interp.output(1), Value::ones(4));
    EXPECT_EQ(interp.output(0), Value::allX(4));
}

TEST(Specialize, KeepsIndicesAndDropsNames)
{
    Builder b("idx");
    NodeRef s = b.synthVar("s", 1, true);
    NodeRef a = b.input("a", 8);
    NodeRef r = b.state("r", 8);
    b.setInit(r, Value::fromUint(8, 3));
    b.setNext(r, b.ite(s, a, r));
    b.addOutput("q", r);
    b.nameSignal("r_sig", r);
    ir::TransitionSystem sys = b.finish();

    // On: the register loads a every cycle.
    ir::TransitionSystem spec = ir::specialize(sys, {Value::ones(1)});
    spec.typeCheck();
    ASSERT_EQ(spec.states.size(), 1u);
    ASSERT_EQ(spec.inputs.size(), 1u);
    ASSERT_EQ(spec.synth_vars.size(), 1u);
    ASSERT_EQ(spec.outputs.size(), 1u);
    EXPECT_TRUE(spec.signals.empty());
    EXPECT_TRUE(spec.states[0].name.empty());
    EXPECT_EQ(spec.states[0].init, Value::fromUint(8, 3));
    EXPECT_TRUE(spec.synth_vars[0].is_phi);
    EXPECT_EQ(spec.synth_vars[0].ref, ir::kNullRef);
    EXPECT_EQ(spec.states[0].next, spec.inputs[0].ref);

    // Off: the register never loads, so input a is dead.
    ir::TransitionSystem off = ir::specialize(sys, {Value::zeros(1)});
    off.typeCheck();
    EXPECT_EQ(off.inputs[0].ref, ir::kNullRef);
    EXPECT_EQ(off.states[0].next, off.states[0].ref);
}

TEST(Specialize, AddGuardAllOffShrinksToDesignSize)
{
    const benchmarks::LoadedBenchmark &lb = benchmarks::load("i2c_k1");
    templates::PreprocessResult pre = templates::preprocess(*lb.buggy);
    elaborate::ElaborateOptions base_opts;
    base_opts.library = lb.buggy_lib;
    ir::TransitionSystem base =
        elaborate::elaborate(*pre.module, base_opts);
    for (const auto &tmpl : templates::standardTemplates()) {
        if (tmpl->name() != "add-guard")
            continue;
        templates::TemplateResult inst =
            tmpl->apply(*pre.module, lb.buggy_lib);
        elaborate::ElaborateOptions opts = base_opts;
        opts.synth_vars = inst.vars.specs();
        ir::TransitionSystem sys =
            elaborate::elaborate(*inst.instrumented, opts);
        std::vector<Value> off;
        for (const auto &v : sys.synth_vars)
            off.push_back(Value::zeros(v.width));
        ir::TransitionSystem spec = ir::specialize(sys, off);
        spec.typeCheck();
        EXPECT_LE(spec.nodes.size(), 2 * base.nodes.size())
            << "instrumented " << sys.nodes.size() << " nodes, design "
            << base.nodes.size();
        return;
    }
    FAIL() << "add-guard template not found";
}

} // namespace
