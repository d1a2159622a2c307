// Service-layer unit tests that need no sockets: the JSON codec, the
// NDJSON protocol lines, admission-control verdicts, digests, the
// crash-recovery journal, and the RSS-unknown degradation path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <sys/mman.h>

#include "service/job_queue.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/digest.hpp"
#include "util/fault.hpp"

using namespace rtlrepair;
using namespace rtlrepair::service;

namespace {

/** Temp file path that cleans up after itself. */
struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
};

} // namespace

TEST(Json, RoundTripsEscapesAndNesting)
{
    Json obj = Json::object();
    obj.set("plain", Json::string("hello"));
    obj.set("tricky",
            Json::string("line1\nline2\ttab \"quoted\" back\\slash"));
    obj.set("control", Json::string(std::string("nul\x01byte")));
    obj.set("num", Json::number(42));
    obj.set("frac", Json::number(2.5));
    obj.set("yes", Json::boolean(true));
    Json arr = Json::array();
    arr.push(Json::string("a"));
    arr.push(Json::number(uint64_t(9007199254740993ull)));
    obj.set("arr", std::move(arr));

    std::string text = obj.dump();
    // NDJSON framing: a dumped line must never contain a raw newline.
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;

    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(text, back, &error)) << error;
    EXPECT_EQ(back.str("plain"), "hello");
    EXPECT_EQ(back.str("tricky"),
              "line1\nline2\ttab \"quoted\" back\\slash");
    EXPECT_EQ(back.str("control"), std::string("nul\x01byte"));
    EXPECT_EQ(back.num("num"), 42.0);
    EXPECT_EQ(back.num("frac"), 2.5);
    EXPECT_TRUE(back.flag("yes"));
    ASSERT_NE(back.find("arr"), nullptr);
    EXPECT_EQ(back.find("arr")->items().size(), 2u);
}

TEST(Json, ParseRejectsMalformedInput)
{
    const char *corpus[] = {
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,2",
        "\"unterminated",
        "{\"a\":1} trailing",
        "{'single':1}",
        "{\"a\":01}",
        "nul",
        "{\"a\":\"bad\\qescape\"}",
    };
    for (const char *text : corpus) {
        Json out;
        std::string error;
        EXPECT_FALSE(Json::parse(text, out, &error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty());
    }
}

TEST(Json, ParseHandlesUnicodeEscapes)
{
    Json out;
    ASSERT_TRUE(Json::parse("{\"s\":\"a\\u00e9\\ud83d\\ude00b\"}",
                            out, nullptr));
    // é is 2 UTF-8 bytes, the emoji (surrogate pair) is 4.
    EXPECT_EQ(out.str("s").size(), 1 + 2 + 4 + 1u);
}

TEST(Protocol, SubmitLineRoundTrips)
{
    JobRequest req;
    req.id = "job-1";
    req.tenant = "teamA";
    req.priority = 2;
    req.design = "module m (input a);\nendmodule\n";
    req.trace = "in:a\nb0\nb1\n";
    req.timeout_seconds = 12.5;
    req.jobs = 3;
    req.zero_x = true;
    req.want_stages = true;

    std::string wire = submitLine(req);
    ASSERT_EQ(wire.back(), '\n');
    Json msg;
    ASSERT_TRUE(
        Json::parse(wire.substr(0, wire.size() - 1), msg, nullptr));
    std::string error;
    auto type = messageType(msg, error);
    ASSERT_TRUE(type.has_value()) << error;
    EXPECT_EQ(*type, "submit");

    JobRequest back;
    ASSERT_TRUE(parseSubmit(msg, back, error)) << error;
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.tenant, req.tenant);
    EXPECT_EQ(back.priority, req.priority);
    EXPECT_EQ(back.design, req.design);
    EXPECT_EQ(back.trace, req.trace);
    EXPECT_EQ(back.timeout_seconds, req.timeout_seconds);
    EXPECT_EQ(back.jobs, req.jobs);
    EXPECT_EQ(back.zero_x, req.zero_x);
    EXPECT_EQ(back.want_stages, req.want_stages);
}

TEST(Protocol, ParseSubmitRejectsBadRequests)
{
    Json msg = Json::object();
    msg.set("type", Json::string("submit"));
    JobRequest out;
    std::string error;
    EXPECT_FALSE(parseSubmit(msg, out, error));  // no design

    msg.set("design", Json::string("module m;endmodule"));
    EXPECT_FALSE(parseSubmit(msg, out, error));  // no trace

    msg.set("trace", Json::string("in:a\nb0\n"));
    EXPECT_TRUE(parseSubmit(msg, out, error));
    // Keys the protocol no longer reads are ignored like any unknown
    // key (an older client may still send "incremental").
    msg.set("incremental", Json::boolean(false));
    EXPECT_TRUE(parseSubmit(msg, out, error));

    msg.set("timeout", Json::number(-1.0));
    EXPECT_FALSE(parseSubmit(msg, out, error));  // negative timeout
}

TEST(Protocol, MessageTypeEnforcesVersion)
{
    Json msg;
    std::string error;
    ASSERT_TRUE(Json::parse("{\"v\":1,\"type\":\"ping\"}", msg,
                            nullptr));
    EXPECT_TRUE(messageType(msg, error).has_value());

    ASSERT_TRUE(Json::parse("{\"v\":2,\"type\":\"ping\"}", msg,
                            nullptr));
    EXPECT_FALSE(messageType(msg, error).has_value());

    ASSERT_TRUE(Json::parse("{\"v\":1}", msg, nullptr));
    EXPECT_FALSE(messageType(msg, error).has_value());

    ASSERT_TRUE(Json::parse("[1,2,3]", msg, nullptr));
    EXPECT_FALSE(messageType(msg, error).has_value());
}

TEST(Protocol, ExitCodesAreStable)
{
    using Status = repair::RepairOutcome::Status;
    EXPECT_EQ(exitCodeFor(Status::Repaired), 0);
    EXPECT_EQ(exitCodeFor(Status::NoRepair), 2);
    EXPECT_EQ(exitCodeFor(Status::Degraded), 2);
    EXPECT_EQ(exitCodeFor(Status::Timeout), 3);
    EXPECT_EQ(exitCodeFor(Status::CannotSynthesize), 4);
}

TEST(Admission, VerdictsAndOrdering)
{
    struct Probe
    {
        std::string name;
    };
    JobQueue<Probe> queue(3, 2);

    auto probe = [](const char *name) {
        return std::make_shared<Probe>(Probe{name});
    };
    EXPECT_EQ(queue.submit("a", "t1", 0, probe("a")),
              Admission::Admitted);
    EXPECT_EQ(queue.submit("a", "t1", 0, probe("dup")),
              Admission::Duplicate);
    EXPECT_EQ(queue.submit("b", "t1", 5, probe("b")),
              Admission::Admitted);
    // t1 is at its tenant cap (2 admitted); the queue has room, so
    // the verdict names the tenant, not the queue.
    EXPECT_EQ(queue.submit("c", "t1", 0, probe("c")),
              Admission::TenantBusy);
    EXPECT_EQ(queue.submit("d", "t2", 0, probe("d")),
              Admission::Admitted);
    // Now the queue itself is full for everyone.
    EXPECT_EQ(queue.submit("e0", "t3", 0, probe("e0")),
              Admission::Overloaded);

    // Priority order out: b (5) before the FIFO of a, d (0).
    auto first = queue.pop(100);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->name, "b");
    auto second = queue.pop(100);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->name, "a");
    auto third = queue.pop(100);
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->name, "d");
    EXPECT_EQ(queue.pop(10), nullptr);

    // Slots free only on release; then the tenant can submit again.
    EXPECT_EQ(queue.submit("e", "t1", 0, probe("e")),
              Admission::TenantBusy);
    queue.release("a", "t1");
    EXPECT_EQ(queue.submit("e", "t1", 0, probe("e")),
              Admission::Admitted);

    queue.shutdown();
    EXPECT_EQ(queue.submit("f", "t2", 0, probe("f")),
              Admission::ShuttingDown);
    // Admitted-but-unpopped jobs still drain after shutdown.
    auto drained = queue.pop(10);
    ASSERT_NE(drained, nullptr);
    EXPECT_EQ(drained->name, "e");

    EXPECT_STREQ(admissionReason(Admission::Overloaded), "overloaded");
    EXPECT_STREQ(admissionReason(Admission::TenantBusy),
                 "tenant-busy");
    EXPECT_STREQ(admissionReason(Admission::Duplicate), "duplicate");
    EXPECT_STREQ(admissionReason(Admission::ShuttingDown),
                 "shutting-down");
}

TEST(Admission, FifoWithinPriorityLevel)
{
    struct Probe
    {
        int n;
    };
    JobQueue<Probe> queue(8, 0);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.submit("id" + std::to_string(i), "", 1,
                               std::make_shared<Probe>(Probe{i})),
                  Admission::Admitted);
    for (int i = 0; i < 4; ++i) {
        auto p = queue.pop(100);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->n, i);
    }
}

TEST(Journal, ReplayReportsInterruptedJobs)
{
    TempPath tmp("journal_replay.ndjson");
    std::string error;
    {
        Journal journal;
        ASSERT_TRUE(journal.open(tmp.path, error)) << error;
        EXPECT_TRUE(journal.interrupted().empty());
        journal.logStart("finished", "t1");
        journal.logDone("finished", "repaired");
        journal.logStart("lost-a", "t1");
        journal.logStart("lost-b", "");
    }  // "crash": destructor closes with two starts un-done

    Journal reopened;
    ASSERT_TRUE(reopened.open(tmp.path, error)) << error;
    ASSERT_EQ(reopened.interrupted().size(), 2u);
    EXPECT_EQ(reopened.interrupted()[0].id, "lost-a");
    EXPECT_EQ(reopened.interrupted()[0].tenant, "t1");
    EXPECT_EQ(reopened.interrupted()[1].id, "lost-b");

    // Resubmitting an interrupted id supersedes the orphan record.
    reopened.clearInterrupted("lost-a");
    ASSERT_EQ(reopened.interrupted().size(), 1u);
    EXPECT_EQ(reopened.interrupted()[0].id, "lost-b");
}

TEST(Journal, ToleratesTornTrailingLine)
{
    TempPath tmp("journal_torn.ndjson");
    {
        std::ofstream out(tmp.path);
        out << "{\"event\":\"start\",\"job\":\"ok\"}\n";
        out << "{\"event\":\"start\",\"jo";  // torn mid-write by crash
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(tmp.path, error)) << error;
    ASSERT_EQ(journal.interrupted().size(), 1u);
    EXPECT_EQ(journal.interrupted()[0].id, "ok");
}

TEST(Journal, EmptyPathDisablesJournaling)
{
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open("", error));
    EXPECT_FALSE(journal.enabled());
    journal.logStart("a", "");  // no-ops, no crash
    journal.logDone("a", "repaired");
}

TEST(Digest, StableAndSeparatorSafe)
{
    // FNV-1a 64 with the standard offset/prime; empty string hashes
    // to the offset basis.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    // Design/trace separator: moving bytes across the boundary
    // changes the digest (concatenation is not ambiguous).
    EXPECT_EQ(jobDigest("d", "t"), fnv1a64("d\x1ft"));
    EXPECT_NE(jobDigest("ab", "c"), jobDigest("a", "bc"));
    EXPECT_EQ(jobDigest("d", "t"), jobDigest("d", "t"));
}

TEST(PeakRss, ParseVmHwmHandlesRealAndDegenerateInput)
{
    EXPECT_EQ(parseVmHwmKb("VmPeak:  100 kB\nVmHWM:\t  5544 kB\n"),
              std::optional<size_t>(5544));
    EXPECT_EQ(parseVmHwmKb("VmHWM:      1 kB"),
              std::optional<size_t>(1));
    // Missing field, wrong units, garbage digits, truncation: all
    // report unknown, never 0.
    EXPECT_EQ(parseVmHwmKb(""), std::nullopt);
    EXPECT_EQ(parseVmHwmKb("VmPeak: 100 kB\n"), std::nullopt);
    EXPECT_EQ(parseVmHwmKb("VmHWM: garbage kB\n"), std::nullopt);
    EXPECT_EQ(parseVmHwmKb("VmHWM: 100 MB\n"), std::nullopt);
    EXPECT_EQ(parseVmHwmKb("VmHWM: 100"), std::nullopt);
    EXPECT_EQ(parseVmHwmKb("VmHWM:"), std::nullopt);
}

TEST(PeakRss, ParseVmRssReadsTheCurrentNotThePeakField)
{
    const char *status =
        "VmPeak:  900 kB\nVmHWM:\t  5544 kB\nVmRSS:\t  1200 kB\n";
    EXPECT_EQ(parseVmRssKb(status), std::optional<size_t>(1200));
    EXPECT_EQ(parseVmHwmKb(status), std::optional<size_t>(5544));
    EXPECT_EQ(parseVmRssKb("VmRSS:      1 kB"), std::optional<size_t>(1));
    EXPECT_EQ(parseVmRssKb(""), std::nullopt);
    EXPECT_EQ(parseVmRssKb("VmHWM: 100 kB\n"), std::nullopt);
    EXPECT_EQ(parseVmRssKb("VmRSS: garbage kB\n"), std::nullopt);
    EXPECT_EQ(parseVmRssKb("VmRSS: 100 MB\n"), std::nullopt);
    EXPECT_EQ(parseVmRssKb("VmRSS: 100"), std::nullopt);
    EXPECT_EQ(parseVmRssKb("VmRSS:"), std::nullopt);
}

TEST(PeakRss, CurrentRssFallsBackBelowThePeakAfterAFree)
{
    if (!std::ifstream("/proc/self/status"))
        GTEST_SKIP() << "no /proc/self/status";
    {
        // Mapped directly, so no allocator can keep it after the free.
        const size_t bytes = 64u << 20;
        void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        ASSERT_NE(map, MAP_FAILED);
        char *spike = static_cast<char *>(map);
        for (size_t i = 0; i < bytes; i += 4096)
            spike[i] = 1;
        EXPECT_GE(currentRssKb().value_or(0), 64u << 10);
        munmap(map, bytes);
    }
    std::optional<size_t> now = currentRssKb(), peak = peakRssKb();
    ASSERT_TRUE(now && peak);
    EXPECT_LT(*now + (32u << 10), *peak)
        << "a freed spike must not count against a later budget";
}
