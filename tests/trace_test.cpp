// Tests for the I/O trace table and stimulus builder.
#include "util/logging.hpp"
#include <gtest/gtest.h>

#include "trace/io_trace.hpp"
#include "trace/stimulus.hpp"
#include "util/strings.hpp"

using namespace rtlrepair;
using bv::Value;
using trace::IoTrace;
using trace::StimulusBuilder;

TEST(StimulusBuilder, RowsHoldPreviousValues)
{
    StimulusBuilder sb({{"a", 4}, {"b", 1}});
    sb.set("a", 3).set("b", 1).step(2);
    sb.set("b", 0).step();
    auto seq = sb.finish();
    ASSERT_EQ(seq.length(), 3u);
    EXPECT_EQ(seq.rows[0][0].toUint64(), 3u);
    EXPECT_EQ(seq.rows[1][1].toUint64(), 1u);
    EXPECT_EQ(seq.rows[2][0].toUint64(), 3u) << "a held";
    EXPECT_EQ(seq.rows[2][1].toUint64(), 0u);
}

TEST(StimulusBuilder, UnsetGivesX)
{
    StimulusBuilder sb({{"a", 4}});
    sb.step();
    sb.set("a", 1).step();
    sb.unset("a").step();
    auto seq = sb.finish();
    EXPECT_TRUE(seq.rows[0][0].hasX());
    EXPECT_FALSE(seq.rows[1][0].hasX());
    EXPECT_TRUE(seq.rows[2][0].hasX());
}

TEST(StimulusBuilder, RejectsUnknownNamesAndBadWidths)
{
    StimulusBuilder sb({{"a", 4}});
    EXPECT_THROW(sb.set("nope", 1), PanicError);
    EXPECT_THROW(sb.setValue("a", Value::fromUint(8, 1)), PanicError);
}

TEST(IoTrace, CsvRoundTrip)
{
    IoTrace io;
    io.inputs = {{"clk_en", 1}, {"d", 4}};
    io.outputs = {{"q", 4}};
    io.input_rows = {{Value::fromUint(1, 1), Value::fromUint(4, 3)},
                     {Value::allX(1), Value::parseVerilog("4'b1x01")}};
    io.output_rows = {{Value::fromUint(4, 0)}, {Value::allX(4)}};

    std::string csv = io.toCsv();
    IoTrace back = IoTrace::fromCsv(csv);
    ASSERT_EQ(back.length(), 2u);
    EXPECT_EQ(back.inputs[0].name, "clk_en");
    EXPECT_EQ(back.outputs[0].name, "q");
    EXPECT_EQ(back.input_rows[0][1].toUint64(), 3u);
    EXPECT_TRUE(back.input_rows[1][0].hasX());
    EXPECT_EQ(back.input_rows[1][1].toBinaryString(), "1x01");
    EXPECT_TRUE(back.output_rows[1][0].hasX());
    EXPECT_EQ(back.toCsv(), csv);
}

TEST(IoTrace, FromCsvValidation)
{
    EXPECT_THROW(IoTrace::fromCsv("bad_header\n1\n"), FatalError);
    EXPECT_THROW(IoTrace::fromCsv("in:a,out:b\nb1\n"), FatalError)
        << "row with wrong cell count";
}

namespace {

/** The message of the FatalError that parsing @p csv throws. */
std::string
csvError(const std::string &csv)
{
    try {
        IoTrace::fromCsv(csv);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "(no error)";
}

} // namespace

TEST(IoTraceParser, BinaryCellsMatchVerilogLiterals)
{
    // Cells made only of 0/1/x/z are decoded directly; they must give
    // exactly the value of the equivalent sized Verilog literal.
    Rng rng(17);
    const char digits[] = "01xzXZ";
    for (uint32_t width = 1; width <= 130; ++width) {
        std::string cell;
        for (uint32_t i = 0; i < width; ++i)
            cell += digits[rng.below(rng.chance(0.5) ? 2 : 6)];
        IoTrace t = IoTrace::fromCsv("in:a,out:y\nb" + cell + ",B" +
                                     cell + "\n");
        Value want = Value::parseVerilog(format("%u'b%s", width,
                                                cell.c_str()));
        ASSERT_EQ(t.length(), 1u);
        EXPECT_EQ(t.input_rows[0][0], want) << cell;
        EXPECT_EQ(t.output_rows[0][0], want) << cell;
        EXPECT_EQ(t.inputs[0].width, width);
    }
}

TEST(IoTraceParser, OtherCellFormsKeepTheirVerilogMeaning)
{
    IoTrace t = IoTrace::fromCsv(
        "in:a,in:b,in:c,in:d,in:e,in:f,in:g,out:y\n"
        "x, - ,12,8'hff,b1_0,b?1,X,b0010\n");
    ASSERT_EQ(t.length(), 1u);
    const auto &r = t.input_rows[0];
    EXPECT_EQ(r[0], Value::allX(1));
    EXPECT_EQ(r[1], Value::allX(1));
    EXPECT_EQ(r[2], Value::parseVerilog("12"));
    EXPECT_EQ(r[2].width(), 32u) << "bare decimals are 32 bits";
    EXPECT_EQ(r[3], Value::parseVerilog("8'hff"));
    // The width of a b cell counts every character after the b, as
    // it always has: b1_0 is the 3-bit literal 3'b1_0.
    EXPECT_EQ(r[4], Value::parseVerilog("3'b1_0"));
    EXPECT_EQ(r[5], Value::parseVerilog("2'b?1"));
    EXPECT_EQ(r[6], Value::allX(1));
    EXPECT_EQ(t.output_rows[0][0], Value::fromUint(4, 2));
}

TEST(IoTraceParser, CrlfAndTrailingBlankLines)
{
    const std::string lf = "in:a, out:y\nb10,b1\nb0x,bz\n";
    const std::string crlf =
        "in:a, out:y\r\nb10,b1\r\n\r\nb0x,bz\r\n\r\n\n  \n";
    IoTrace a = IoTrace::fromCsv(lf), b = IoTrace::fromCsv(crlf);
    ASSERT_EQ(a.length(), 2u);
    ASSERT_EQ(b.length(), 2u);
    EXPECT_EQ(b.outputs[0].name, "y");
    for (size_t row = 0; row < 2; ++row) {
        EXPECT_EQ(a.input_rows[row], b.input_rows[row]);
        EXPECT_EQ(a.output_rows[row], b.output_rows[row]);
    }
    EXPECT_EQ(b.input_rows[1][0].toBinaryString(), "0x");
    EXPECT_EQ(b.toCsv(), a.toCsv());
    // No trailing newline at all parses the same.
    EXPECT_EQ(IoTrace::fromCsv("in:a,out:y\nb10,b1").toCsv(),
              "in:a,out:y\nb10,b1\n");
}

TEST(IoTraceParser, MalformedInputMessagesAreStable)
{
    // Row numbers are line numbers after the header, blank lines
    // included; the cell count is checked before any cell is parsed.
    EXPECT_EQ(csvError("in:a,out:b\nb1\n"),
              "trace row 1 has 1 cells, expected 2");
    EXPECT_EQ(csvError("in:a,out:b\nb1,b0\n\n  \nb1,q,b0\n"),
              "trace row 4 has 3 cells, expected 2");
    EXPECT_EQ(csvError("in:a,out:b\r\nb1,b0\r\nb1\r\n"),
              "trace row 2 has 1 cells, expected 2");
    EXPECT_EQ(csvError("bad_header\n1\n"),
              "trace column must be prefixed in:/out:: bad_header");
    EXPECT_EQ(csvError(""), "trace column must be prefixed in:/out:: ");
    EXPECT_EQ(csvError("in:a\nb12\n"),
              "digit out of range for base: 2'b12");
    EXPECT_EQ(csvError("in:a\nb\n"), "unsupported literal width: 0'b");
    EXPECT_EQ(csvError("in:a\nq\n"), "malformed integer literal: q");
    EXPECT_EQ(csvError("in:a,in:b\nb1,\n"), "empty integer literal");
}

TEST(IoTrace, ColumnLookupAndStimulusExtraction)
{
    IoTrace io;
    io.inputs = {{"a", 1}, {"b", 2}};
    io.outputs = {{"y", 4}};
    io.input_rows = {{Value::fromUint(1, 1), Value::fromUint(2, 2)}};
    io.output_rows = {{Value::fromUint(4, 9)}};
    EXPECT_EQ(io.inputIndex("b"), 1);
    EXPECT_EQ(io.inputIndex("y"), -1);
    EXPECT_EQ(io.outputIndex("y"), 0);
    auto stim = io.stimulus();
    EXPECT_EQ(stim.length(), 1u);
    EXPECT_EQ(stim.columnIndex("a"), 0);
}

TEST(Stimulus, RandomRowsAndSweep)
{
    Rng rng(3);
    StimulusBuilder sb({{"x", 8}, {"y", 8}});
    trace::randomRows(sb, {"x", "y"}, 10, rng);
    auto seq = sb.finish();
    EXPECT_EQ(seq.length(), 10u);

    StimulusBuilder sweep({{"a", 1}, {"b", 1}});
    trace::exhaustiveSweep(sweep, {"a", "b"});
    auto sw = sweep.finish();
    ASSERT_EQ(sw.length(), 4u);
    EXPECT_EQ(sw.rows[3][0].toUint64(), 1u);
    EXPECT_EQ(sw.rows[3][1].toUint64(), 1u);
}
