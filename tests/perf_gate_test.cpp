// bench/perf_gate end to end: the checked-in baseline must pass
// against itself, and a copy with every wall_seconds doubled must be
// reported as a regression.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "service/json.hpp"

using rtlrepair::service::Json;

namespace {

/** Exit code of perf_gate run on the baseline and @p current. */
int
runGate(const std::string &current)
{
    std::string cmd = std::string(RTLREPAIR_PERF_GATE) + " " +
                      RTLREPAIR_BASELINE + " " + current +
                      " > /dev/null";
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(PerfGate, BaselinePassesAgainstItself)
{
    EXPECT_EQ(runGate(RTLREPAIR_BASELINE), 0);
}

TEST(PerfGate, DoubledWallSecondsFail)
{
    std::ifstream in(RTLREPAIR_BASELINE);
    std::ostringstream text;
    text << in.rdbuf();
    Json root;
    ASSERT_TRUE(Json::parse(text.str(), root));
    const Json *benches = root.find("benchmarks");
    ASSERT_TRUE(benches && !benches->items().empty());
    Json slower = Json::array();
    for (Json row : benches->items()) {
        row.set("wall_seconds",
                Json::number(2.0 * row.num("wall_seconds")));
        slower.push(std::move(row));
    }
    root.set("benchmarks", std::move(slower));
    std::string path = ::testing::TempDir() + "perf_gate_slower.json";
    std::ofstream(path) << root.dump() << "\n";
    EXPECT_EQ(runGate(path), 1);
}
