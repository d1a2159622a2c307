// Component micro-benchmarks (google-benchmark): parser, elaborator,
// simulators, SAT solver, bit-blaster.  These quantify the substrate
// costs behind the repair-speed numbers of Table 5.
#include <benchmark/benchmark.h>

#include "benchmarks/registry.hpp"
#include "elaborate/elaborate.hpp"
#include "gates/gate_sim.hpp"
#include "repair/driver.hpp"
#include "repair/unroller.hpp"
#include "sat/solver.hpp"
#include "sim/event_sim.hpp"
#include "sim/interpreter.hpp"
#include "smt/bitblast.hpp"
#include "templates/replace_literals.hpp"
#include "util/rng.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;

namespace {

const char *kDesign = R"(
module bench_design (input clk, input rst, input [7:0] a,
                     input [7:0] b, output reg [7:0] acc,
                     output reg flag);
    reg [7:0] stage;
    always @(posedge clk) begin
        if (rst) begin
            acc <= 8'd0;
            stage <= 8'd0;
            flag <= 1'b0;
        end else begin
            stage <= (a ^ b) + (a & b);
            acc <= acc + stage;
            flag <= acc > 8'd200;
        end
    end
endmodule
)";

} // namespace

static void
BM_ParseVerilog(benchmark::State &state)
{
    for (auto _ : state) {
        auto file = verilog::parse(kDesign);
        benchmark::DoNotOptimize(file.top().items.size());
    }
}
BENCHMARK(BM_ParseVerilog);

static void
BM_Elaborate(benchmark::State &state)
{
    auto file = verilog::parse(kDesign);
    for (auto _ : state) {
        ir::TransitionSystem sys = elaborate::elaborate(file);
        benchmark::DoNotOptimize(sys.nodes.size());
    }
}
BENCHMARK(BM_Elaborate);

static void
BM_InterpreterCycles(benchmark::State &state)
{
    auto file = verilog::parse(kDesign);
    ir::TransitionSystem sys = elaborate::elaborate(file);
    sim::Interpreter interp(sys, {sim::XPolicy::Zero,
                                  sim::XPolicy::Zero, 1});
    Rng rng(1);
    interp.setInputByName("rst", bv::Value::fromUint(1, 0));
    for (auto _ : state) {
        interp.setInputByName("a", bv::Value::random(8, rng));
        interp.setInputByName("b", bv::Value::random(8, rng));
        interp.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpreterCycles);

static void
BM_EventSimCycles(benchmark::State &state)
{
    auto file = verilog::parse(kDesign);
    sim::EventSimulator sim(file.top(), {}, "clk");
    Rng rng(1);
    sim.setInput("rst", bv::Value::fromUint(1, 0));
    for (auto _ : state) {
        sim.setInput("a", bv::Value::random(8, rng));
        sim.setInput("b", bv::Value::random(8, rng));
        sim.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSimCycles);

static void
BM_GateSimCycles(benchmark::State &state)
{
    auto file = verilog::parse(kDesign);
    ir::TransitionSystem sys = elaborate::elaborate(file);
    gates::GateNetlist net = gates::lower(sys);
    gates::GateSimulator gsim(net);
    Rng rng(1);
    for (auto _ : state) {
        gsim.setInput(1, bv::Value::random(8, rng));
        gsim.setInput(2, bv::Value::random(8, rng));
        gsim.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GateSimCycles);

static void
BM_BlastCycle(benchmark::State &state)
{
    auto file = verilog::parse(kDesign);
    ir::TransitionSystem sys = elaborate::elaborate(file);
    for (auto _ : state) {
        smt::Aig aig;
        smt::CycleBindings bindings;
        for (const auto &st : sys.states)
            bindings.states.push_back(smt::freshWord(aig, st.width));
        for (const auto &in : sys.inputs)
            bindings.inputs.push_back(smt::freshWord(aig, in.width));
        auto words = smt::blastCycle(aig, sys, bindings);
        benchmark::DoNotOptimize(words.outputs.size());
    }
}
BENCHMARK(BM_BlastCycle);

static void
BM_SatPigeonhole(benchmark::State &state)
{
    const int holes = static_cast<int>(state.range(0));
    const int pigeons = holes + 1;
    for (auto _ : state) {
        sat::Solver solver;
        std::vector<std::vector<sat::Var>> x(
            pigeons, std::vector<sat::Var>(holes));
        for (auto &row : x) {
            for (auto &v : row)
                v = solver.newVar();
        }
        for (int p = 0; p < pigeons; ++p) {
            std::vector<sat::Lit> clause;
            for (int h = 0; h < holes; ++h)
                clause.push_back(sat::mkLit(x[p][h]));
            solver.addClause(clause);
        }
        for (int h = 0; h < holes; ++h) {
            for (int p1 = 0; p1 < pigeons; ++p1) {
                for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                    solver.addClause(sat::mkLit(x[p1][h], true),
                                     sat::mkLit(x[p2][h], true));
                }
            }
        }
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

static void
BM_RepairQueryCounter(benchmark::State &state)
{
    // Build and solve the counter_k1 repair query once per iteration:
    // the core of a Table 5 cell.
    const auto &lb = benchmarks::load("counter_k1");
    templates::ReplaceLiteralsTemplate tmpl;
    auto inst = tmpl.apply(*lb.buggy, lb.buggy_lib);
    elaborate::ElaborateOptions opts;
    opts.library = lb.buggy_lib;
    opts.synth_vars = inst.vars.specs();
    ir::TransitionSystem sys =
        elaborate::elaborate(*inst.instrumented, opts);
    trace::IoTrace resolved = repair::resolveTraceInputs(
        lb.tb, sim::XPolicy::Random, 1);
    std::vector<bv::Value> init =
        repair::resolveInitState(sys, sim::XPolicy::Random, 1);
    for (auto _ : state) {
        repair::RepairQuery query(sys, inst.vars, resolved);
        query.retarget(0, resolved.length(), init, nullptr);
        benchmark::DoNotOptimize(query.checkFeasible(nullptr));
    }
}
BENCHMARK(BM_RepairQueryCounter);

BENCHMARK_MAIN();
