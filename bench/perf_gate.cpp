// perf_gate: the CI performance-regression gate.
//
//   perf_gate <baseline.json> <metrics.json> [--max-regress R]
//
// Both files use the `rtlrepair-bench-v1` schema written by
// table5_speed --metrics-out.  For every benchmark present in the
// baseline, the gate compares the current run's wall_seconds,
// sat_conflicts, sat_solves (deterministic solve()-call totals) and
// encode_seconds (window-encode wall time) against the baseline and
// fails when any grew by more than the allowed factor (default 1.25,
// i.e. +25%).  Wall-clock noise on loaded CI runners is real, which
// is why the deterministic SAT totals are gated too: an algorithmic
// regression moves them even when the runner happens to be fast.
// The top-level sim_throughput block (event vs vectorized
// simulation, stimuli/sec) is gated against a hard 8x floor and
// against the baseline's speedup.
//
// Exit codes: 0 = within budget, 1 = regression, 2 = bad input/usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "service/json.hpp"

namespace {

using rtlrepair::service::Json;

struct BenchRow
{
    std::string status;
    double wall_seconds = 0.0;
    double sat_conflicts = 0.0;
    double sat_solves = 0.0;
    double encode_seconds = 0.0;
};

/** One parsed metrics file: the per-benchmark rows plus the
 *  top-level vec/event simulation speedup. */
struct MetricsFile
{
    std::map<std::string, BenchRow> rows;
    double sim_speedup = 0.0;
};

/** Numeric field @p key of @p obj into @p out; false when absent. */
bool
readNumber(const Json &obj, const char *key, double &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    out = v->asNumber();
    return true;
}

bool
loadBench(const char *path, MetricsFile &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perf_gate: cannot read %s\n", path);
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Json root;
    std::string error;
    if (!Json::parse(buf.str(), root, &error) || !root.isObject()) {
        std::fprintf(stderr, "perf_gate: %s is not valid JSON (%s)\n",
                     path, error.c_str());
        return false;
    }
    if (root.str("schema") != "rtlrepair-bench-v1") {
        std::fprintf(stderr,
                     "perf_gate: %s: expected schema "
                     "rtlrepair-bench-v1\n",
                     path);
        return false;
    }
    const Json *sim = root.find("sim_throughput");
    if (!sim || !readNumber(*sim, "speedup", out.sim_speedup)) {
        std::fprintf(stderr, "perf_gate: %s: no sim_throughput.speedup\n",
                     path);
        return false;
    }
    const Json *benches = root.find("benchmarks");
    if (!benches || !benches->isArray()) {
        std::fprintf(stderr, "perf_gate: %s: no benchmarks array\n",
                     path);
        return false;
    }
    for (const Json &b : benches->items()) {
        std::string name = b.str("name");
        if (name.empty())
            continue;
        BenchRow row;
        row.status = b.str("status");
        const std::pair<const char *, double *> fields[] = {
            {"wall_seconds", &row.wall_seconds},
            {"sat_conflicts", &row.sat_conflicts},
            {"sat_solves", &row.sat_solves},
            {"encode_seconds", &row.encode_seconds},
        };
        for (const auto &[key, dst] : fields) {
            if (!readNumber(b, key, *dst)) {
                std::fprintf(stderr, "perf_gate: %s: %s has no %s\n",
                             path, name.c_str(), key);
                return false;
            }
        }
        out.rows[name] = row;
    }
    return true;
}

/** One metric comparison; returns true when within budget. */
bool
gate(const std::string &bench, const char *metric, double base,
     double cur, double max_regress, double noise_floor)
{
    // Tiny baselines are all noise: a solve that took 3ms regressing
    // to 6ms is not a signal worth failing a PR over.
    if (base < noise_floor) {
        std::printf("  %-12s %-14s %10.3f -> %10.3f  (below noise "
                    "floor, skipped)\n",
                    bench.c_str(), metric, base, cur);
        return true;
    }
    double ratio = cur / base;
    bool ok = ratio <= max_regress;
    std::printf("  %-12s %-14s %10.3f -> %10.3f  ratio %5.2f  %s\n",
                bench.c_str(), metric, base, cur, ratio,
                ok ? "ok" : "REGRESSION");
    return ok;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perf_gate <baseline.json> <metrics.json> "
                 "[--max-regress R]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    double max_regress = 1.25;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-regress") == 0 &&
            i + 1 < argc) {
            max_regress = std::atof(argv[++i]);
        } else {
            return usage();
        }
    }
    if (max_regress <= 1.0) {
        std::fprintf(stderr,
                     "perf_gate: --max-regress must be > 1.0\n");
        return 2;
    }

    MetricsFile baseline_file, current_file;
    if (!loadBench(argv[1], baseline_file) ||
        !loadBench(argv[2], current_file)) {
        return 2;
    }
    const std::map<std::string, BenchRow> &baseline =
        baseline_file.rows;
    const std::map<std::string, BenchRow> &current =
        current_file.rows;
    if (baseline.empty()) {
        std::fprintf(stderr, "perf_gate: baseline has no benchmarks\n");
        return 2;
    }

    std::printf("perf gate: %zu baseline benchmarks, max regress "
                "%.2fx\n",
                baseline.size(), max_regress);
    bool ok = true;
    // Wall-clock on shared runners jitters more than solver work does;
    // give it a generous noise floor, and gate conflicts from zero
    // upward (a deterministic count has no noise to forgive).
    constexpr double kWallNoiseFloorSeconds = 0.05;
    constexpr double kConflictNoiseFloor = 100.0;
    for (const auto &[name, base] : baseline) {
        auto it = current.find(name);
        if (it == current.end()) {
            std::printf("  %-12s MISSING from current run\n",
                        name.c_str());
            ok = false;
            continue;
        }
        const BenchRow &cur = it->second;
        if (base.status != cur.status) {
            std::printf("  %-12s status changed: %s -> %s\n",
                        name.c_str(), base.status.c_str(),
                        cur.status.c_str());
            ok = false;
            continue;
        }
        ok &= gate(name, "wall_seconds", base.wall_seconds,
                   cur.wall_seconds, max_regress,
                   kWallNoiseFloorSeconds);
        ok &= gate(name, "sat_conflicts", base.sat_conflicts,
                   cur.sat_conflicts, max_regress,
                   kConflictNoiseFloor);
        // Deterministic count; floor of 10 forgives one-off
        // solver-call jitter on trivially small runs only.
        ok &= gate(name, "sat_solves", base.sat_solves, cur.sat_solves,
                   max_regress, 10.0);
        ok &= gate(name, "encode_seconds", base.encode_seconds,
                   cur.encode_seconds, max_regress,
                   kWallNoiseFloorSeconds);
    }
    // Vectorized-simulation throughput, two checks:
    //   floor — the current run must hold the vectorized backend's
    //     advertised advantage (>= 8x stimuli/s over the event
    //     backend on the fuzz batch workload);
    //   ratio — the speedup must not shrink by more than the
    //     regression factor.  Both sides are event-vs-vec ratios on
    //     the same machine and workload, so runner speed cancels out.
    constexpr double kMinVecSpeedup = 8.0;
    bool floor_ok = current_file.sim_speedup >= kMinVecSpeedup;
    std::printf("  %-12s %-14s %10.3f    (floor %.1fx)  %s\n", "sim",
                "vec_speedup", current_file.sim_speedup, kMinVecSpeedup,
                floor_ok ? "ok" : "REGRESSION");
    ok &= floor_ok;
    // gate() checks growth; the speedup regresses by shrinking, so
    // compare the inverted ratio.
    ok &= gate("sim", "vec_slowdown", 1.0 / baseline_file.sim_speedup,
               1.0 / current_file.sim_speedup, max_regress, 0.0);
    if (!ok) {
        std::printf("perf gate: FAILED (add the perf-waiver label if "
                    "the regression is intended)\n");
        return 1;
    }
    std::printf("perf gate: ok\n");
    return 0;
}
