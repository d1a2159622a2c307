// Registry bugs grouped by the golden recording they share.
//
// The bugs of one design share its golden source, top module, clock,
// stimulus and hidden outputs, so their golden traces are one
// recording (50 bugs, 29 recordings).  A sweep over the registry's
// golden traces instantiates one test case per recording, so that it
// records each trace once and `ctest -j` can spread the cases over
// the shards registered in tests/CMakeLists.txt.
#ifndef RTLREPAIR_TESTS_REGISTRY_RECORDINGS_HPP
#define RTLREPAIR_TESTS_REGISTRY_RECORDINGS_HPP

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "benchmarks/registry.hpp"

namespace rtlrepair::testsupport {

/** One golden recording and the bugs that share it. */
struct Recording
{
    /** Registry order; the first bug names the recording. */
    std::vector<const benchmarks::BenchmarkDef *> bugs;
};

inline void
PrintTo(const Recording &rec, std::ostream *os)
{
    for (const auto *def : rec.bugs)
        *os << def->name << ' ';
}

/** Every registry bug, grouped by recording, in registry order. */
inline std::vector<Recording>
registryRecordings()
{
    using Key = std::tuple<std::string, std::string, std::string,
                           std::string, std::vector<std::string>>;
    std::map<Key, size_t> index;
    std::vector<Recording> out;
    for (const auto &def : benchmarks::all()) {
        Key key{def.dir + "/" + def.golden_file, def.top, def.clock,
                def.stimulus_id, def.hidden_outputs};
        auto [it, fresh] = index.emplace(key, out.size());
        if (fresh)
            out.emplace_back();
        out[it->second].bugs.push_back(&def);
    }
    return out;
}

/** gtest case-name suffix: the recording's first bug. */
inline std::string
recordingName(const ::testing::TestParamInfo<Recording> &info)
{
    return info.param.bugs.front()->name;
}

} // namespace rtlrepair::testsupport

#endif // RTLREPAIR_TESTS_REGISTRY_RECORDINGS_HPP
