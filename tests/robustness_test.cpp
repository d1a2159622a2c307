// Malformed-input corpus: truncated/garbage Verilog and trace files
// must surface as FatalError (invalid user input), never as a
// PanicError (tool bug) or a crash — and the repair driver must map
// them to a clean CannotSynthesize outcome instead of escaping.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "checks/correctness.hpp"
#include "elaborate/elaborate.hpp"
#include "gates/gate_sim.hpp"
#include "repair/driver.hpp"
#include "repair/windowing.hpp"
#include "sim/vec_sim.hpp"
#include "trace/io_trace.hpp"
#include "verilog/parser.hpp"

using namespace rtlrepair;
using verilog::parse;

namespace {

/** Parsing may succeed or throw FatalError; panics fail the test. */
void
expectFatalOrOk(const std::string &what,
                const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &) {
        // Expected shape for malformed user input.
    } catch (const PanicError &e) {
        ADD_FAILURE() << what << " panicked: " << e.what();
    }
}

} // namespace

TEST(Robustness, MalformedVerilogNeverPanics)
{
    const char *corpus[] = {
        "",
        "module",
        "module m",
        "module m (",
        "module m (input a;",
        "module m (input a); always",
        "module m (input a); always @(posedge clk) begin",
        "module m (input a); assign x = ;",
        "module m (input a); assign x = 1'b; endmodule",
        "module m (input a); assign x = 4'hZZZZZZZZ; endmodule",
        "module m (input [7:0);",
        "module m; if endmodule",
        "endmodule",
        "garbage !@#$%^&*()",
        "module m (input a); wire w = (((((; endmodule",
        "module m (input a); assign = a; endmodule",
        "\x01\x02\x03\xff\xfe binary junk",
        "module m (input a); always @(posedge) begin end endmodule",
    };
    for (const char *src : corpus) {
        expectFatalOrOk(std::string("parse of \"") + src + "\"",
                        [&] { auto f = parse(src); (void)f; });
    }
}

TEST(Robustness, TruncatedVerilogNeverPanics)
{
    // Every prefix of a valid module must parse or fail cleanly.
    const std::string good = R"(
module m (input clk, input rst, input [3:0] d, output reg [3:0] q);
    wire [3:0] next = rst ? 4'd0 : d;
    always @(posedge clk) begin
        q <= next;
    end
endmodule
)";
    for (size_t len = 0; len < good.size(); len += 7) {
        std::string truncated = good.substr(0, len);
        expectFatalOrOk("truncated parse at " + std::to_string(len),
                        [&] { auto f = parse(truncated); (void)f; });
    }
}

TEST(Robustness, MalformedElaborationInputIsFatalNotPanic)
{
    // These designs parse but are semantically broken; the elaborator
    // must report them as user errors (FatalError), since they come
    // straight from the user's source.
    const char *corpus[] = {
        // Part-select read out of range.
        R"(module m (input [3:0] x, output [3:0] y);
           assign y = x[8:5]; endmodule)",
        // Part-select write out of range.
        R"(module m (input [3:0] x, output reg [3:0] y);
           always @(*) y[9:6] = x; endmodule)",
        // Non-positive replication count.
        R"(module m (input x, output [3:0] y);
           assign y = {0{x}}; endmodule)",
    };
    for (const char *src : corpus) {
        SCOPED_TRACE(src);
        try {
            auto file = parse(src);
            elaborate::elaborate(file);
            ADD_FAILURE() << "malformed design elaborated cleanly";
        } catch (const FatalError &) {
            // Expected.
        } catch (const PanicError &e) {
            ADD_FAILURE() << "panicked instead of fatal: " << e.what();
        }
    }
}

TEST(Robustness, TooManyOrderedConnectionsIsFatal)
{
    // `m` must come first: elaboration starts from the first module.
    const char *src = R"(
module m (input x, output y);
    wire extra;
    sub s (x, y, extra);
endmodule
module sub (input a, output b);
    assign b = a;
endmodule
)";
    try {
        auto file = parse(src);
        elaborate::elaborate(file);
        ADD_FAILURE() << "excess port connection elaborated cleanly";
    } catch (const FatalError &) {
    } catch (const PanicError &e) {
        ADD_FAILURE() << "panicked instead of fatal: " << e.what();
    }
}

TEST(Robustness, MalformedTraceCsvNeverPanics)
{
    const char *corpus[] = {
        "",
        "\n\n\n",
        "no-prefix,columns\n0,1\n",
        "in:a,out:b\n",             // header only (may be legal)
        "in:a,out:b\n0\n",          // short row
        "in:a,out:b\n0,1,1\n",      // long row
        "in:a,out:b\nQ,1\n",        // bad cell character
        "in:a,out:b\n0,1\n0",       // truncated final row
        "in:a;out:b\n0;1\n",        // wrong separator
        ",,,\n,,,\n",
        "in:,out:\n0,1\n",          // empty column names
        "\x00\x01garbage",
    };
    for (const char *src : corpus) {
        expectFatalOrOk(std::string("trace parse of \"") + src + "\"",
                        [&] {
                            trace::IoTrace t =
                                trace::IoTrace::fromCsv(src);
                            (void)t;
                        });
    }
}

TEST(Robustness, TraceColumnNotInDesignIsBadInputNotACrash)
{
    auto buggy = parse(R"(
module m (input clk, input a, output reg q);
    always @(posedge clk) q <= a;
endmodule
)");
    trace::IoTrace io = trace::IoTrace::fromCsv(
        "in:a,in:bogus,out:q\n0,0,0\n1,1,0\n");
    repair::RepairConfig config;
    repair::RepairOutcome outcome;
    EXPECT_NO_THROW(outcome = repair::repairDesign(buggy.top(), {}, io,
                                                   config));
    EXPECT_EQ(outcome.status,
              repair::RepairOutcome::Status::CannotSynthesize);
    EXPECT_NE(outcome.detail.find("invalid trace"), std::string::npos)
        << outcome.detail;
}

TEST(Robustness, TraceOutputNotInDesignIsBadInputNotACrash)
{
    auto buggy = parse(R"(
module m (input clk, input a, output reg q);
    always @(posedge clk) q <= a;
endmodule
)");
    trace::IoTrace io = trace::IoTrace::fromCsv(
        "in:a,out:nope\n0,0\n1,0\n");
    repair::RepairConfig config;
    repair::RepairOutcome outcome;
    EXPECT_NO_THROW(outcome = repair::repairDesign(buggy.top(), {}, io,
                                                   config));
    EXPECT_EQ(outcome.status,
              repair::RepairOutcome::Status::CannotSynthesize);
}

// Every simulator binds trace columns to ports the same way: a column
// that names no port of its own direction is a user error (FatalError)
// in each of them, and the Table 4 battery reports it as a failed
// check.
TEST(Robustness, BadTraceColumnIsFatalInEverySimulator)
{
    auto file = parse(R"(
module m (input clk, input a, output reg q, output y);
    always @(posedge clk) q <= a;
    assign y = a;
endmodule
)");
    const verilog::Module &mod = file.top();
    ir::TransitionSystem sys = elaborate::elaborate(mod);
    gates::GateNetlist net = gates::lower(sys);
    std::vector<bv::Value> init;
    for (const auto &st : sys.states)
        init.push_back(bv::Value::zeros(st.width));

    const char *traces[] = {
        "in:y,out:q\n0,0\n1,0\n",     // input column names an output
        "in:nope,out:q\n0,0\n1,0\n",  // input column names nothing
        "in:a,out:a\n0,0\n1,1\n",     // output column names an input
    };
    for (const char *csv : traces) {
        SCOPED_TRACE(csv);
        trace::IoTrace io = trace::IoTrace::fromCsv(csv);
        sim::Interpreter interp(sys);
        EXPECT_THROW(sim::replay(interp, io), FatalError);
        EXPECT_THROW(gates::gateReplay(net, io), FatalError);
        EXPECT_THROW(sim::eventReplay(mod, {}, "clk", io), FatalError);
        EXPECT_THROW(
            sim::replayTrace(sim::SimBackend::Vec, mod, {}, "clk", io),
            FatalError);
        EXPECT_THROW(repair::ConcreteRunner(sys, io, init), FatalError);

        checks::CheckInputs inputs;
        inputs.golden = &mod;
        inputs.repaired = &mod;
        inputs.clock = "clk";
        inputs.tb = &io;
        checks::CheckReport report;
        ASSERT_NO_THROW(report = checks::checkRepair(inputs));
        EXPECT_EQ(report.testbench, std::optional<bool>(false));
        EXPECT_FALSE(report.overall);
    }
}
