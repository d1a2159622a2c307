// Golden-trace regression: every registry design is replayed through
// the event simulator and the resulting I/O trace is digested and
// compared against the checked-in values below.
//
// The digests pin down the *oracle* itself: a change to the event
// simulator, the stimulus builders, or a benchmark source that shifts
// any recorded bit shows up here as a diff, not as a silent change in
// what every downstream repair run is asked to satisfy.
//
// After an intentional change, regenerate the table with:
//
//     RTLREPAIR_PRINT_DIGESTS=1 ./build/tests/golden_trace_test
//
// and paste the printed lines over kExpected.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "benchmarks/registry.hpp"
#include "bv/value.hpp"
#include "sim/event_sim.hpp"
#include "trace/io_trace.hpp"
#include "registry_recordings.hpp"

using namespace rtlrepair;
using testsupport::Recording;
using testsupport::recordingName;
using testsupport::registryRecordings;

namespace {

/** FNV-1a 64 over the CSV form of the trace. */
uint64_t
digest(const trace::IoTrace &tb)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : tb.toCsv()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

trace::IoTrace
recordEventTrace(const benchmarks::BenchmarkDef &def)
{
    const benchmarks::LoadedBenchmark &lb = benchmarks::load(def);
    trace::IoTrace tb = sim::eventRecord(
        *lb.golden, lb.golden_lib, def.clock,
        benchmarks::makeStimulus(def.stimulus_id));
    for (const auto &name : def.hidden_outputs) {
        int idx = tb.outputIndex(name);
        if (idx < 0)
            continue;
        for (auto &row : tb.output_rows)
            row[idx] = bv::Value::allX(row[idx].width());
    }
    return tb;
}

const std::map<std::string, uint64_t> &
expectedDigests()
{
    // Bugs in the same project share a golden design and stimulus,
    // so their digests coincide — that is itself an invariant.
    static const std::map<std::string, uint64_t> kExpected = {
        {"decoder_w1", 0x05d0eb1bdd6954b3ull},
        {"decoder_w2", 0x05d0eb1bdd6954b3ull},
        {"counter_w1", 0x143d60004ac55489ull},
        {"counter_k1", 0x143d60004ac55489ull},
        {"counter_w2", 0x143d60004ac55489ull},
        {"flop_w1", 0xea1f79393914651dull},
        {"flop_w2", 0xea1f79393914651dull},
        {"fsm_w1", 0xc3d3128b9f6b4dc3ull},
        {"fsm_s2", 0xc3d3128b9f6b4dc3ull},
        {"fsm_w2", 0xc3d3128b9f6b4dc3ull},
        {"fsm_s1", 0xc3d3128b9f6b4dc3ull},
        {"shift_w1", 0x481d4f6745c7da63ull},
        {"shift_w2", 0x481d4f6745c7da63ull},
        {"shift_k1", 0x481d4f6745c7da63ull},
        {"mux_k1", 0xffd29eddecb6d464ull},
        {"mux_w2", 0xffd29eddecb6d464ull},
        {"mux_w1", 0xffd29eddecb6d464ull},
        {"i2c_w1", 0xfc1270a240e7124aull},
        {"i2c_w2", 0xfc1270a240e7124aull},
        {"i2c_k1", 0x104f741a8b5b0e63ull},
        {"sha3_w1", 0x8215a11f4c094478ull},
        {"sha3_r1", 0x8215a11f4c094478ull},
        {"sha3_w2", 0x8215a11f4c094478ull},
        {"sha3_s1", 0xaad395eddabb338dull},
        {"pairing_w1", 0xd06c72ff80ceba76ull},
        {"pairing_k1", 0xd06c72ff80ceba76ull},
        {"pairing_w2", 0xd06c72ff80ceba76ull},
        {"reed_b1", 0xfba23eaa8e232809ull},
        {"reed_o1", 0xfba23eaa8e232809ull},
        {"sdram_w2", 0x516277acd3046269ull},
        {"sdram_k2", 0x516277acd3046269ull},
        {"sdram_w1", 0x516277acd3046269ull},
        {"oss_d4", 0x136e2e08afeb6e78ull},
        {"oss_d8", 0x7bb97eea1296a7daull},
        {"oss_d9", 0xf3ffa7aff2e56011ull},
        {"oss_d11", 0x45909c5c800b88a7ull},
        {"oss_d12", 0x140f1597afacf076ull},
        {"oss_d13", 0x086d4404dc470eaaull},
        {"oss_c1", 0xb57a9a31f7006f40ull},
        {"oss_c3", 0xb57a9a31f7006f40ull},
        {"oss_c4", 0xcf846b0acfc0c3f4ull},
        {"oss_s1r", 0x52436da6130d5ffaull},
        {"oss_s1b", 0x52436da6130d5ffaull},
        {"oss_s2", 0xd959542e9e286d4dull},
        {"oss_s3", 0xa0433363ee0ffa6bull},
        {"oss_m1", 0x8ed166da8b63ee61ull},
        {"oss_m2", 0xa222fdbf72c12896ull},
        {"oss_m3", 0x6d356afc46582f1cull},
        {"oss_m4", 0x37b6ab38c33c85a2ull},
        {"oss_m5", 0x91d47168f1c74679ull},
    };
    return kExpected;
}

} // namespace

// One case per golden recording (tests/registry_recordings.hpp): the
// trace is recorded once and checked against the digest of every bug
// that shares it.  The cases run as their own ctest shards.
class RegistryRecording : public testing::TestWithParam<Recording>
{
};

TEST_P(RegistryRecording, EventSimDigestIsStable)
{
    const bool print = std::getenv("RTLREPAIR_PRINT_DIGESTS");
    trace::IoTrace tb = recordEventTrace(*GetParam().bugs.front());
    ASSERT_GT(tb.length(), 0u);
    uint64_t got = digest(tb);
    for (const benchmarks::BenchmarkDef *def : GetParam().bugs) {
        if (print) {
            std::printf("        {\"%s\", 0x%016llxull},\n",
                        def->name.c_str(),
                        static_cast<unsigned long long>(got));
            continue;
        }
        auto it = expectedDigests().find(def->name);
        if (it == expectedDigests().end()) {
            ADD_FAILURE() << "no digest recorded for " << def->name
                          << "; add: {\"" << def->name << "\", 0x"
                          << std::hex << got << "ull},";
            continue;
        }
        EXPECT_EQ(got, it->second)
            << def->name << ": the event-sim golden trace changed; if "
            << "intentional, regenerate with RTLREPAIR_PRINT_DIGESTS=1";
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, RegistryRecording,
                         testing::ValuesIn(registryRecordings()),
                         recordingName);

TEST(GoldenTrace, TableCoversExactlyTheRegistry)
{
    if (std::getenv("RTLREPAIR_PRINT_DIGESTS"))
        GTEST_SKIP();
    for (const auto &[name, d] : expectedDigests()) {
        (void)d;
        EXPECT_NE(benchmarks::find(name), nullptr)
            << "stale digest entry: " << name;
    }
}
