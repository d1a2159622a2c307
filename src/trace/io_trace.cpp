#include "trace/io_trace.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::trace {

using bv::Value;

namespace {

int
findColumn(const std::vector<Column> &cols, const std::string &name)
{
    for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * The field of @p text that starts at @p pos and ends before the next
 * @p sep (or at the end); advances @p pos past that separator.  Like
 * split(), a text ending in @p sep has a final empty field, so the
 * fields are exhausted once @p pos > text.size().
 */
std::string_view
nextField(std::string_view text, size_t &pos, char sep)
{
    size_t end = std::min(text.find(sep, pos), text.size());
    std::string_view field = text.substr(pos, end - pos);
    pos = end + 1;
    return field;
}

/**
 * The digits of a @c b cell as a value of that many bits, when they
 * are all 0/1/x/z: the form toCsv() writes, decoded without building
 * a Verilog literal.  Anything else (underscores, @c ?, bad digits)
 * returns nothing and is left to Value::parseVerilog.
 */
std::optional<Value>
binaryCell(std::string_view digits)
{
    if (digits.empty() || digits.size() > (1u << 20))
        return std::nullopt;
    uint32_t width = static_cast<uint32_t>(digits.size());
    Value v = Value::zeros(width);
    for (uint32_t i = 0; i < width; ++i) {
        switch (digits[width - 1 - i]) {
          case '0': break;
          case '1': v.setBit(i, 1); break;
          case 'x': case 'X': case 'z': case 'Z': v.setBit(i, -1); break;
          default: return std::nullopt;
        }
    }
    return v;
}

/** One trimmed CSV cell as a value. */
Value
parseCell(std::string_view cell)
{
    if (!cell.empty() && (cell[0] == 'b' || cell[0] == 'B')) {
        std::string_view bits = cell.substr(1);
        if (std::optional<Value> v = binaryCell(bits))
            return std::move(*v);
        return Value::parseVerilog(format(
            "%zu'b%.*s", bits.size(), static_cast<int>(bits.size()),
            bits.data()));
    }
    if (cell == "x" || cell == "X" || cell == "-")
        return Value::allX(1);
    return Value::parseVerilog(cell);
}

} // namespace

int
InputSequence::columnIndex(const std::string &name) const
{
    return findColumn(inputs, name);
}

int
IoTrace::inputIndex(const std::string &name) const
{
    return findColumn(inputs, name);
}

int
IoTrace::outputIndex(const std::string &name) const
{
    return findColumn(outputs, name);
}

InputSequence
IoTrace::stimulus() const
{
    InputSequence seq;
    seq.inputs = inputs;
    seq.rows = input_rows;
    return seq;
}

std::string
IoTrace::toCsv() const
{
    std::ostringstream out;
    bool first = true;
    for (const auto &col : inputs) {
        if (!first)
            out << ",";
        out << "in:" << col.name;
        first = false;
    }
    for (const auto &col : outputs) {
        if (!first)
            out << ",";
        out << "out:" << col.name;
        first = false;
    }
    out << "\n";
    for (size_t row = 0; row < length(); ++row) {
        first = true;
        for (const auto &v : input_rows[row]) {
            if (!first)
                out << ",";
            out << "b" << v.toBinaryString();
            first = false;
        }
        for (const auto &v : output_rows[row]) {
            if (!first)
                out << ",";
            out << "b" << v.toBinaryString();
            first = false;
        }
        out << "\n";
    }
    return out.str();
}

IoTrace
IoTrace::fromCsv(const std::string &text)
{
    IoTrace trace;
    size_t pos = 0;
    std::string_view header = nextField(text, pos, '\n');

    std::vector<bool> is_input;
    for (size_t hp = 0; hp <= header.size();) {
        std::string_view name = trim(nextField(header, hp, ','));
        if (startsWith(name, "in:")) {
            trace.inputs.push_back(
                Column{std::string(name.substr(3)), 1});
            is_input.push_back(true);
        } else if (startsWith(name, "out:")) {
            trace.outputs.push_back(
                Column{std::string(name.substr(4)), 1});
            is_input.push_back(false);
        } else {
            fatal("trace column must be prefixed in:/out:: " +
                  std::string(name));
        }
    }

    size_t max_rows = std::count(text.begin(), text.end(), '\n');
    trace.input_rows.reserve(max_rows);
    trace.output_rows.reserve(max_rows);
    for (size_t li = 1; pos <= text.size(); ++li) {
        std::string_view line = nextField(text, pos, '\n');
        if (trim(line).empty())
            continue;
        size_t ncells = std::count(line.begin(), line.end(), ',') + 1;
        if (ncells != is_input.size())
            fatal(format("trace row %zu has %zu cells, expected %zu",
                         li, ncells, is_input.size()));
        std::vector<Value> in_row, out_row;
        in_row.reserve(trace.inputs.size());
        out_row.reserve(trace.outputs.size());
        size_t cp = 0;
        for (size_t ci = 0; ci < ncells; ++ci) {
            Value v = parseCell(trim(nextField(line, cp, ',')));
            if (is_input[ci])
                in_row.push_back(std::move(v));
            else
                out_row.push_back(std::move(v));
        }
        trace.input_rows.push_back(std::move(in_row));
        trace.output_rows.push_back(std::move(out_row));
    }

    // Infer column widths from the first row.
    if (!trace.input_rows.empty()) {
        for (size_t i = 0; i < trace.inputs.size(); ++i)
            trace.inputs[i].width = trace.input_rows[0][i].width();
        for (size_t i = 0; i < trace.outputs.size(); ++i)
            trace.outputs[i].width = trace.output_rows[0][i].width();
    }
    return trace;
}

StimulusBuilder::StimulusBuilder(std::vector<Column> inputs)
{
    _seq.inputs = std::move(inputs);
    for (const auto &col : _seq.inputs)
        _pending.push_back(Value::allX(col.width));
}

StimulusBuilder &
StimulusBuilder::set(const std::string &name, uint64_t value)
{
    int idx = _seq.columnIndex(name);
    check(idx >= 0, "unknown stimulus input: " + name);
    _pending[idx] = Value::fromUint(_seq.inputs[idx].width, value);
    return *this;
}

StimulusBuilder &
StimulusBuilder::setValue(const std::string &name, const Value &value)
{
    int idx = _seq.columnIndex(name);
    check(idx >= 0, "unknown stimulus input: " + name);
    check(value.width() == _seq.inputs[idx].width,
          "stimulus width mismatch for " + name);
    _pending[idx] = value;
    return *this;
}

StimulusBuilder &
StimulusBuilder::unset(const std::string &name)
{
    int idx = _seq.columnIndex(name);
    check(idx >= 0, "unknown stimulus input: " + name);
    _pending[idx] = Value::allX(_seq.inputs[idx].width);
    return *this;
}

StimulusBuilder &
StimulusBuilder::step(size_t repeat)
{
    for (size_t i = 0; i < repeat; ++i)
        _seq.rows.push_back(_pending);
    return *this;
}

InputSequence
StimulusBuilder::finish()
{
    return std::move(_seq);
}

} // namespace rtlrepair::trace
