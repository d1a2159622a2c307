// In-process end-to-end tests of the repaird service layer: a real
// Server on a real Unix socket, driven by raw protocol clients.
//
// The headline test is the fault-isolation sweep (the PR's acceptance
// criterion): for every service-layer and pipeline fault site, a
// poisoned job degrades alone — sibling jobs submitted afterwards
// produce results byte-identical (modulo timing fields) to a no-fault
// baseline, and the daemon keeps serving.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "util/fault.hpp"

using namespace rtlrepair;
using namespace rtlrepair::service;

namespace {

// A repairable design (reset constant is wrong) ...
const char *kBuggyCounter = R"(
module counter (input clk, input rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd3;
        else q <= q + 4'd1;
    end
endmodule
)";
const char *kCounterTrace =
    "in:rst,out:q\n"
    "b1,bxxxx\n"
    "b0,b0000\n"
    "b0,b0001\n"
    "b0,b0010\n"
    "b0,b0011\n"
    "b1,b0100\n"
    "b0,b0000\n"
    "b0,b0001\n";

// ... an unrepairable one (the trace contradicts a 1-bit register) ...
const char *kUnrepairable = R"(
module nr (input clk, input a, output reg q);
    always @(posedge clk) q <= a;
endmodule
)";
const char *kUnrepairableTrace =
    "in:a,out:q\n"
    "b0,bx\n"
    "b1,b1\n"
    "b0,b1\n"
    "b1,b0\n"
    "b0,b0\n";

// ... and one that needs no repair at all.
const char *kGoodDesign = R"(
module ok (input clk, input a, output reg q);
    always @(posedge clk) q <= a;
endmodule
)";
const char *kGoodTrace =
    "in:a,out:q\n"
    "b1,bx\n"
    "b0,b1\n"
    "b1,b0\n"
    "b1,b1\n";

/** Raw NDJSON protocol client for driving the server directly. */
struct RawClient
{
    Fd fd;
    std::unique_ptr<LineReader> reader;

    explicit RawClient(const std::string &address)
    {
        std::string error;
        fd = connectTo(address, error);
        if (fd.valid())
            reader = std::make_unique<LineReader>(fd.get());
    }

    bool ok() const { return fd.valid(); }

    bool sendRaw(const std::string &line)
    {
        return writeAll(fd, line);
    }

    bool
    sendMsg(const char *type, const std::string &id = "")
    {
        Json msg = Json::object();
        msg.set("v", Json::number(kProtocolVersion));
        msg.set("type", Json::string(type));
        if (!id.empty())
            msg.set("id", Json::string(id));
        return sendRaw(msg.dump() + "\n");
    }

    /** Result lines read while waiting for something else, by id —
     *  concurrent jobs finish in any order. */
    std::map<std::string, Json> results;

    /**
     * Read lines until one has type @p type (and id @p id when
     * non-empty); returns null Json on timeout.  Out-of-order result
     * lines are buffered, never dropped.
     */
    Json
    await(const std::string &type, const std::string &id = "",
          int timeout_ms = 30000)
    {
        if (type == "result") {
            auto it = results.find(id);
            if (it != results.end()) {
                Json found = it->second;
                results.erase(it);
                return found;
            }
        }
        std::string line;
        int waited = 0;
        while (waited < timeout_ms) {
            LineReader::Io io = reader->readLine(line, 100);
            if (io == LineReader::Io::Again) {
                waited += 100;
                continue;
            }
            if (io != LineReader::Io::Line)
                return Json::null();
            Json msg;
            if (!Json::parse(line, msg, nullptr))
                continue;
            bool match =
                msg.str("type") == type &&
                (id.empty() || msg.str("id") == id);
            if (match)
                return msg;
            if (msg.str("type") == "result")
                results[msg.str("id")] = msg;
        }
        return Json::null();
    }
};

/** Poll `stats` until @p queued jobs wait in the queue; false when
 *  that does not happen within about 10 s. */
bool
awaitQueued(RawClient &client, double queued)
{
    for (int tries = 0; tries < 1000; ++tries) {
        if (!client.sendMsg("stats"))
            return false;
        Json stats = client.await("stats");
        if (stats.isObject() && stats.num("queued", -1) == queued)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

std::string
submitFor(const std::string &id, const char *design,
          const char *trace, const std::string &tenant = "",
          int priority = 0)
{
    JobRequest req;
    req.id = id;
    req.tenant = tenant;
    req.priority = priority;
    req.design = design;
    req.trace = trace;
    req.timeout_seconds = 30.0;
    return submitLine(req);
}

/**
 * Canonical form of a result line for byte-identical comparison:
 * blank the two fields that legitimately vary between runs (the job
 * id and the timing) and keep every other field as sent.
 */
std::string
normalizeResult(const Json &result)
{
    Json norm = result;
    norm.set("id", Json::null());
    norm.set("seconds", Json::null());
    return norm.dump();
}

struct ServerFixture
{
    std::string socket_path;
    std::string journal_path;
    std::unique_ptr<Server> server;

    explicit ServerFixture(const std::string &name,
                           ServerConfig config = {})
    {
        socket_path = ::testing::TempDir() + name + ".sock";
        journal_path = ::testing::TempDir() + name + ".journal";
        std::remove(socket_path.c_str());
        std::remove(journal_path.c_str());
        config.listen = socket_path;
        config.journal_path = journal_path;
        server = std::make_unique<Server>(config);
        std::string error;
        if (!server->start(error))
            ADD_FAILURE() << "server start failed: " << error;
    }

    ~ServerFixture()
    {
        FaultInjector::instance().reset();
        server.reset();
        std::remove(socket_path.c_str());
        std::remove(journal_path.c_str());
    }
};

} // namespace

TEST(Service, RepairsOverTheWireAndRepeatsOnResubmit)
{
    ServerFixture fx("service_basic");
    RawClient client(fx.socket_path);
    ASSERT_TRUE(client.ok());

    ASSERT_TRUE(client.sendRaw(
        submitFor("basic-1", kBuggyCounter, kCounterTrace)));
    Json accepted = client.await("accepted", "basic-1");
    ASSERT_TRUE(accepted.isObject());
    Json result = client.await("result", "basic-1");
    ASSERT_TRUE(result.isObject());
    EXPECT_EQ(result.str("status"), "repaired");
    EXPECT_EQ(result.num("exit_code", -1), 0);
    EXPECT_NE(result.str("repaired").find("4'b0000"),
              std::string::npos)
        << result.str("repaired");

    // Same design resubmitted: every job runs the whole pipeline, so
    // the repair is byte-identical and nothing reports warm state.
    ASSERT_TRUE(client.sendRaw(
        submitFor("basic-2", kBuggyCounter, kCounterTrace)));
    Json result2 = client.await("result", "basic-2");
    ASSERT_TRUE(result2.isObject());
    EXPECT_EQ(normalizeResult(result2), normalizeResult(result));
    EXPECT_EQ(result.find("cache"), nullptr);
    EXPECT_EQ(result2.find("cache"), nullptr);

    ASSERT_TRUE(client.sendMsg("stats"));
    Json stats = client.await("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_EQ(stats.find("cache"), nullptr);
}

TEST(Service, FaultSweepIsolatesPoisonedJobs)
{
    ServerFixture fx("service_faults");

    struct Sibling
    {
        const char *design;
        const char *trace;
        std::string baseline;  // normalized no-fault result
    };
    std::vector<Sibling> siblings = {
        {kBuggyCounter, kCounterTrace, ""},
        {kUnrepairable, kUnrepairableTrace, ""},
        {kGoodDesign, kGoodTrace, ""},
    };

    int serial = 0;
    auto runSiblings = [&](const std::string &tag,
                           bool record_baseline) {
        // Submit all three pipelined on one connection so they run
        // concurrently with each other (workers default to 2).
        RawClient client(fx.socket_path);
        ASSERT_TRUE(client.ok());
        std::vector<std::string> ids;
        for (size_t i = 0; i < siblings.size(); ++i) {
            ids.push_back(tag + "-s" + std::to_string(i) + "-" +
                          std::to_string(serial++));
            ASSERT_TRUE(client.sendRaw(submitFor(
                ids[i], siblings[i].design, siblings[i].trace)));
        }
        for (size_t i = 0; i < siblings.size(); ++i) {
            Json result = client.await("result", ids[i]);
            ASSERT_TRUE(result.isObject())
                << tag << ": no result for " << ids[i];
            std::string norm = normalizeResult(result);
            if (record_baseline)
                siblings[i].baseline = norm;
            else
                EXPECT_EQ(norm, siblings[i].baseline)
                    << tag << ": sibling " << ids[i]
                    << " diverged after a contained fault";
        }
    };

    runSiblings("baseline", true);
    for (const auto &s : siblings)
        ASSERT_FALSE(s.baseline.empty());

    // Poison every service-layer site and a spread of pipeline
    // stages with every fault class the taxonomy knows.
    const char *specs[] = {
        "service:decode:throw",
        "service:decode:panic",
        "service:dispatch:panic",
        "service:dispatch:alloc",
        "service:dispatch:timeout",
        "service:respond:throw",
        "parse:panic",
        "trace:throw",
        "preprocess:panic",
        "elaborate:alloc",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        FaultInjector::instance().configure(spec);

        // Phase 1: detonate the fault on a poisoned request.  The
        // injector fires exactly once, so waiting for the poisoned
        // job's outcome before launching siblings keeps the sweep
        // deterministic.
        RawClient poisoned(fx.socket_path);
        ASSERT_TRUE(poisoned.ok());
        std::string pid = std::string("poison-") + spec;
        for (char &c : pid)
            if (c == ':')
                c = '_';
        ASSERT_TRUE(poisoned.sendRaw(
            submitFor(pid, kBuggyCounter, kCounterTrace)));
        bool decode_fault =
            std::string(spec).find("service:decode") == 0;
        bool respond_fault =
            std::string(spec).find("service:respond") == 0;
        if (decode_fault) {
            // The submit line itself is the poisoned request: it
            // degrades to an error response, nothing is admitted.
            Json error = poisoned.await("error");
            ASSERT_TRUE(error.isObject());
            EXPECT_NE(error.str("message").find("decode fault"),
                      std::string::npos);
        } else if (respond_fault) {
            // The result line is lost with the connection, but the
            // job completed; its result is replayed from the
            // recent-results ring on a fresh connection.
            RawClient query(fx.socket_path);
            ASSERT_TRUE(query.ok());
            Json replay;
            for (int tries = 0; tries < 100; ++tries) {
                ASSERT_TRUE(query.sendMsg("query", pid));
                replay = query.await("result", pid, 300);
                if (replay.isObject())
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            }
            ASSERT_TRUE(replay.isObject())
                << "result not replayable after respond fault";
            EXPECT_EQ(replay.str("status"), "repaired");
        } else {
            // Dispatch/pipeline faults: the job itself reports a
            // contained failure with the stable exit-code mapping.
            Json result = poisoned.await("result", pid);
            ASSERT_TRUE(result.isObject());
            // Service-site faults map to the stable failure codes;
            // pipeline-site faults are contained by the stage guards
            // and may still produce any honest repair outcome.
            std::string status = result.str("status");
            EXPECT_TRUE(status == "error" || status == "bad-input" ||
                        status == "timeout" || status == "degraded" ||
                        status == "no-repair" ||
                        status == "cannot-synthesize" ||
                        status == "repaired")
                << status;
            if (status == "error") {
                EXPECT_EQ(result.num("exit_code", -1), 5);
            }
            if (status == "bad-input") {
                EXPECT_EQ(result.num("exit_code", -1), 4);
            }
        }
        FaultInjector::instance().reset();

        // Phase 2: siblings after the fault must match the no-fault
        // baseline bit for bit.
        std::string tag(spec);
        for (char &c : tag)
            if (c == ':')
                c = '_';
        runSiblings(tag, false);
    }

    // The daemon survived the whole sweep.
    RawClient ping(fx.socket_path);
    ASSERT_TRUE(ping.ok());
    ASSERT_TRUE(ping.sendMsg("ping"));
    EXPECT_TRUE(ping.await("pong").isObject());
}

TEST(Service, AcceptFaultDropsOneConnectionOnly)
{
    ServerFixture fx("service_accept_fault");
    FaultInjector::instance().configure("service:accept:panic");

    // The poisoned connection is accepted and immediately dropped.
    RawClient doomed(fx.socket_path);
    // (Connect itself succeeds — the listener backlog accepts — but
    // the server closes it without serving; a read sees EOF.)
    if (doomed.ok()) {
        std::string line;
        LineReader::Io io = LineReader::Io::Again;
        int waited = 0;
        while (io == LineReader::Io::Again && waited < 5000) {
            io = doomed.reader->readLine(line, 100);
            waited += 100;
        }
        EXPECT_EQ(io, LineReader::Io::Eof);
    }
    FaultInjector::instance().reset();

    // The next connection is served normally.
    RawClient healthy(fx.socket_path);
    ASSERT_TRUE(healthy.ok());
    ASSERT_TRUE(healthy.sendMsg("ping"));
    EXPECT_TRUE(healthy.await("pong").isObject());
}

TEST(Service, OverloadAndTenantCapRejectExplicitly)
{
    ServerConfig config;
    config.workers = 1;
    config.queue_depth = 1;
    config.tenant_cap = 1;
    ServerFixture fx("service_overload", config);
    RawClient client(fx.socket_path);
    ASSERT_TRUE(client.ok());

    // Burst 8 submissions in one write while the single worker is
    // held on the first job it takes: the depth-1 queue fills, so the
    // tail must be rejected with an explicit verdict — never queued
    // unboundedly.  Holding the job keeps the scenario independent of
    // how fast a repair runs.
    FaultInjector::instance().holdAt("service:dispatch");
    std::string burst;
    for (int i = 0; i < 8; ++i)
        burst += submitFor("burst-" + std::to_string(i),
                           kBuggyCounter, kCounterTrace,
                           "tenant-" + std::to_string(i));
    ASSERT_TRUE(client.sendRaw(burst));

    int accepted = 0, overloaded = 0;
    std::vector<std::string> accepted_ids;
    for (int i = 0; i < 8; ++i) {
        std::string id = "burst-" + std::to_string(i);
        std::string line;
        // Each submit gets exactly one verdict, in order.
        Json verdict;
        for (int tries = 0; tries < 300; ++tries) {
            LineReader::Io io = client.reader->readLine(line, 100);
            if (io == LineReader::Io::Again)
                continue;
            ASSERT_EQ(io, LineReader::Io::Line);
            Json msg;
            ASSERT_TRUE(Json::parse(line, msg, nullptr));
            std::string type = msg.str("type");
            if (type == "accepted" || type == "rejected") {
                verdict = msg;
                break;
            }
            // Results from earlier burst jobs interleave with the
            // verdicts; buffer them for the completion check below.
            if (type == "result")
                client.results[msg.str("id")] = msg;
        }
        ASSERT_TRUE(verdict.isObject()) << "no verdict for " << id;
        EXPECT_EQ(verdict.str("id"), id);
        if (verdict.str("type") == "accepted") {
            ++accepted;
            accepted_ids.push_back(id);
        } else {
            EXPECT_EQ(verdict.str("reason"), "overloaded");
            ++overloaded;
        }
    }
    EXPECT_GE(accepted, 1);
    EXPECT_GE(overloaded, 1) << "burst never hit admission control";
    FaultInjector::instance().reset();

    // Everything admitted still completes.
    for (const auto &id : accepted_ids) {
        Json result = client.await("result", id);
        ASSERT_TRUE(result.isObject()) << id;
        EXPECT_EQ(result.str("status"), "repaired");
    }

    // Tenant cap: one running job per tenant; the second submission
    // from the same tenant is rejected as tenant-busy even though
    // the queue has room.  tb-1 is held once the worker takes it, and
    // tb-2 is sent only then, when the depth-1 queue is empty.
    FaultInjector::instance().holdAt("service:dispatch");
    ASSERT_TRUE(client.sendRaw(
        submitFor("tb-1", kBuggyCounter, kCounterTrace, "team")));
    Json first = client.await("accepted", "tb-1");
    ASSERT_TRUE(first.isObject());
    ASSERT_TRUE(awaitQueued(client, 0));
    ASSERT_TRUE(client.sendRaw(
        submitFor("tb-2", kBuggyCounter, kCounterTrace, "team")));
    Json second = client.await("rejected", "tb-2");
    ASSERT_TRUE(second.isObject());
    EXPECT_EQ(second.str("reason"), "tenant-busy");
    FaultInjector::instance().reset();
    EXPECT_TRUE(client.await("result", "tb-1").isObject());

    // Duplicate ids are refused while the original is in flight.
    FaultInjector::instance().holdAt("service:dispatch");
    ASSERT_TRUE(client.sendRaw(
        submitFor("dup", kBuggyCounter, kCounterTrace) +
        submitFor("dup", kBuggyCounter, kCounterTrace)));
    Json dup = client.await("rejected", "dup");
    ASSERT_TRUE(dup.isObject());
    EXPECT_EQ(dup.str("reason"), "duplicate");
    FaultInjector::instance().reset();
}

TEST(Service, CancelWhileQueuedReportsCancelled)
{
    ServerConfig config;
    config.workers = 1;
    config.queue_depth = 4;
    ServerFixture fx("service_cancel", config);
    RawClient client(fx.socket_path);
    ASSERT_TRUE(client.ok());

    // One burst: job A is held on the only worker, job B queues
    // behind it, and the cancel lands while B is still queued.
    FaultInjector::instance().holdAt("service:dispatch");
    Json cancel_msg = Json::object();
    cancel_msg.set("v", Json::number(kProtocolVersion));
    cancel_msg.set("type", Json::string("cancel"));
    cancel_msg.set("id", Json::string("cq-b"));
    ASSERT_TRUE(client.sendRaw(
        submitFor("cq-a", kBuggyCounter, kCounterTrace) +
        submitFor("cq-b", kBuggyCounter, kCounterTrace) +
        cancel_msg.dump() + "\n"));

    EXPECT_TRUE(client.await("cancelled", "cq-b").isObject());
    FaultInjector::instance().reset();
    Json result_b = client.await("result", "cq-b");
    ASSERT_TRUE(result_b.isObject());
    EXPECT_EQ(result_b.str("status"), "cancelled");
    EXPECT_EQ(result_b.num("exit_code", -1), 3);
    EXPECT_TRUE(result_b.flag("cancelled", false) ||
                result_b.str("status") == "cancelled");

    // Job A is unaffected by its sibling's cancellation.
    Json result_a = client.await("result", "cq-a");
    ASSERT_TRUE(result_a.isObject());
    EXPECT_EQ(result_a.str("status"), "repaired");
}

TEST(Service, ClientDisconnectCancelsItsJobs)
{
    ServerConfig config;
    config.workers = 1;
    ServerFixture fx("service_disconnect", config);

    // dc-a is held on the only worker, so dc-b is still queued when
    // the connection closes.  The server notices the close on its own
    // reader thread; the hold is released only once a query shows
    // dc-b's cancel token tripped, so dc-b is cancelled before the
    // worker can take it.
    FaultInjector::instance().holdAt("service:dispatch");
    {
        RawClient doomed(fx.socket_path);
        ASSERT_TRUE(doomed.ok());
        ASSERT_TRUE(doomed.sendRaw(
            submitFor("dc-a", kBuggyCounter, kCounterTrace) +
            submitFor("dc-b", kBuggyCounter, kCounterTrace)));
        ASSERT_TRUE(doomed.await("accepted", "dc-b").isObject());
    }  // connection closes with dc-b queued
    RawClient observer(fx.socket_path);
    ASSERT_TRUE(observer.ok());
    bool noticed = false;
    for (int tries = 0; tries < 1000 && !noticed; ++tries) {
        ASSERT_TRUE(observer.sendMsg("query", "dc-b"));
        Json state = observer.await("job", "dc-b");
        ASSERT_TRUE(state.isObject());
        EXPECT_EQ(state.str("state"), "active");
        noticed = state.flag("cancelled");
        if (!noticed)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(noticed) << "no query reported dc-b cancelled";
    FaultInjector::instance().reset();

    // The orphaned queued job must finish as cancelled (visible via
    // the recent-results ring), not burn the worker.
    Json replay;
    for (int tries = 0; tries < 100; ++tries) {
        ASSERT_TRUE(observer.sendMsg("query", "dc-b"));
        Json msg = observer.await("result", "dc-b", 300);
        if (msg.isObject()) {
            replay = msg;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_TRUE(replay.isObject());
    EXPECT_EQ(replay.str("status"), "cancelled");

    // And the daemon still serves new clients.
    ASSERT_TRUE(observer.sendMsg("ping"));
    EXPECT_TRUE(observer.await("pong").isObject());
}

TEST(Service, JournalReportsJobsLostToACrash)
{
    std::string name = "service_crash";
    std::string journal =
        ::testing::TempDir() + name + ".journal";
    std::remove(journal.c_str());
    // Simulate the previous daemon dying mid-job: its journal has a
    // start with no done (the C++-level stand-in for the SIGKILL the
    // service-smoke CI job performs on a real process).
    {
        std::ofstream out(journal);
        out << "{\"event\":\"start\",\"job\":\"lost-1\","
               "\"tenant\":\"t9\"}\n";
    }

    ServerConfig crashed;
    crashed.listen = ::testing::TempDir() + name + "2.sock";
    crashed.journal_path = journal;
    std::remove(crashed.listen.c_str());
    Server server(crashed);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_EQ(server.interrupted().size(), 1u);
    EXPECT_EQ(server.interrupted()[0].id, "lost-1");

    RawClient client(crashed.listen);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.sendMsg("recover"));
    Json recovered = client.await("recovered");
    ASSERT_TRUE(recovered.isObject());
    const Json *jobs = recovered.find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->items().size(), 1u);
    EXPECT_EQ(jobs->items()[0].str("id"), "lost-1");
    EXPECT_EQ(jobs->items()[0].str("status"), "interrupted");
    EXPECT_EQ(jobs->items()[0].num("exit_code", -1), 3);

    // Resubmitting the idempotent id supersedes the orphan record.
    ASSERT_TRUE(client.sendRaw(
        submitFor("lost-1", kBuggyCounter, kCounterTrace)));
    Json result = client.await("result", "lost-1");
    ASSERT_TRUE(result.isObject());
    EXPECT_EQ(result.str("status"), "repaired");
    ASSERT_TRUE(client.sendMsg("recover"));
    Json after = client.await("recovered");
    ASSERT_TRUE(after.isObject());
    ASSERT_NE(after.find("jobs"), nullptr);
    EXPECT_TRUE(after.find("jobs")->items().empty());

    server.requestStop();
    server.wait();
    std::remove(crashed.listen.c_str());
    std::remove(journal.c_str());
}

TEST(Service, GracefulShutdownFlushesInFlightJobsAsCancelled)
{
    ServerConfig config;
    config.workers = 1;
    auto fx = std::make_unique<ServerFixture>("service_shutdown",
                                              config);
    RawClient client(fx->socket_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.sendRaw(
        submitFor("sd-a", kBuggyCounter, kCounterTrace) +
        submitFor("sd-b", kBuggyCounter, kCounterTrace)));
    ASSERT_TRUE(client.await("accepted", "sd-b").isObject());

    fx->server->requestStop();

    // Admission now refuses with the explicit shutdown verdict...
    ASSERT_TRUE(client.sendRaw(
        submitFor("sd-late", kBuggyCounter, kCounterTrace)));
    Json late = client.await("rejected", "sd-late");
    if (late.isObject()) {  // the socket may already be closing
        EXPECT_EQ(late.str("reason"), "shutting-down");
    }

    // ... and already-admitted jobs drain with flushed results
    // (repaired if they finished, cancelled otherwise) rather than
    // disappearing.
    fx->server->wait();
    // wait() returned: both jobs were journalled as done, so a
    // restart over the same journal reports nothing interrupted.
    Server reopened(ServerConfig{fx->socket_path + "2",
                                 fx->journal_path});
    std::string error;
    ASSERT_TRUE(reopened.start(error)) << error;
    EXPECT_TRUE(reopened.interrupted().empty());
    reopened.requestStop();
    reopened.wait();
    std::remove((fx->socket_path + "2").c_str());
}

TEST(Service, RemoteClientRunsJobsWithBackoffAndStages)
{
    ServerFixture fx("service_client");
    ClientConfig config;
    config.address = fx.socket_path;
    config.jitter_seed = 7;
    Client client(config);
    std::string error;
    ASSERT_TRUE(client.connect(error)) << error;

    JobRequest req;
    req.design = kBuggyCounter;
    req.trace = kCounterTrace;
    req.timeout_seconds = 30.0;
    JobResult result;
    int code = client.runJob(req, result);
    EXPECT_EQ(code, 0);
    EXPECT_EQ(result.status, "repaired");
    EXPECT_NE(result.repaired.find("4'b0000"), std::string::npos);

    // Unreachable daemon: every attempt fails, bounded by backoff.
    ClientConfig bad;
    bad.address = ::testing::TempDir() + "absent.sock";
    bad.max_attempts = 2;
    bad.initial_backoff_ms = 10;
    bad.max_backoff_ms = 20;
    Client unreachable(bad);
    EXPECT_FALSE(unreachable.connect(error));
    EXPECT_NE(error.find("after 2 attempts"), std::string::npos)
        << error;
}

namespace {

/** Exit code of the repaird binary run with @p args (output
 *  discarded). */
int
runRepaird(const std::string &args)
{
    std::string cmd = std::string(RTLREPAIR_REPAIRD) + " " + args +
                      " > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(Repaird, CacheFlagIsAUsageError)
{
    // The listen address sits in a directory that does not exist, so
    // a daemon whose flags parse exits 5 (cannot start) at once
    // instead of serving; a rejected flag exits 4 before that.
    const std::string listen = "--listen " + ::testing::TempDir() +
                               "no-such-dir/repaird.sock";
    EXPECT_EQ(runRepaird(listen), 5);
    EXPECT_EQ(runRepaird(listen + " --cache-mb 16"), 4);
}
