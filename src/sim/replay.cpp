#include "sim/replay.hpp"

#include "util/logging.hpp"
#include "verilog/ast.hpp"

namespace rtlrepair::sim {

namespace {

size_t
boundPort(int port, const char *dir, const std::string &column)
{
    if (port < 0)
        fatal(std::string("trace ") + dir + " not in design: " + column);
    return static_cast<size_t>(port);
}

int
portIndex(const verilog::Module &flat, const std::string &name,
          verilog::PortDir dir)
{
    for (size_t i = 0; i < flat.ports.size(); ++i) {
        if (flat.ports[i].name == name && flat.ports[i].dir == dir)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

TraceBinding::TraceBinding(const ir::TransitionSystem &sys,
                           const std::vector<trace::Column> &input_cols,
                           const std::vector<trace::Column> &output_cols)
{
    for (const trace::Column &col : input_cols)
        inputs.push_back(
            boundPort(sys.inputIndex(col.name), "input", col.name));
    for (const trace::Column &col : output_cols)
        outputs.push_back(
            boundPort(sys.outputIndex(col.name), "output", col.name));
}

TraceBinding::TraceBinding(const verilog::Module &flat,
                           const std::string &clock,
                           const std::vector<trace::Column> &input_cols,
                           const std::vector<trace::Column> &output_cols)
{
    using verilog::PortDir;
    for (const trace::Column &col : input_cols) {
        bool is_clock = !clock.empty() && col.name == clock;
        inputs.push_back(
            is_clock ? kUnbound
                     : boundPort(portIndex(flat, col.name, PortDir::Input),
                                 "input", col.name));
    }
    for (const trace::Column &col : output_cols)
        outputs.push_back(boundPort(
            portIndex(flat, col.name, PortDir::Output), "output", col.name));
}

} // namespace rtlrepair::sim
