#!/usr/bin/env bash
# service_smoke.sh — end-to-end crash/fault smoke test of repaird,
# run by the `service-smoke` CI job (and usable locally).
#
#   scripts/service_smoke.sh <build-dir> [out-dir]
#
# Phases:
#   1. start repaird with an injected pipeline fault; the first job
#      submitted absorbs it (panic -> internal error result) and the
#      daemon keeps serving
#   2. concurrent clients: good repairs via `repair_cli --connect`,
#      a malformed-JSON client, and a bad-design client — all get
#      their documented responses, none disturbs the others
#   3. a burst of jobs is submitted and the daemon is SIGKILLed
#      mid-flight
#   4. restart on the same journal: the lost jobs are reported as
#      interrupted (daemon stdout + `recover` request)
#   5. clean final sweep: every interrupted id is resubmitted and
#      succeeds, `recover` drains to empty, SIGTERM shuts the daemon
#      down gracefully (exit 0)
#
# Every raw client writes the NDJSON lines it received to <out-dir>,
# which CI uploads as artifacts.  Exits non-zero on the first failed
# assertion.
set -u

BUILD_DIR="${1:?usage: service_smoke.sh <build-dir> [out-dir]}"
OUT="${2:-service-smoke-out}"
REPAIRD="$BUILD_DIR/examples/repaird"
CLI="$BUILD_DIR/examples/repair_cli"
DAEMON_PID=""

mkdir -p "$OUT" || {
    echo "service_smoke: FAIL: cannot create artifact dir $OUT" >&2
    exit 1
}

fail() {
    echo "service_smoke: FAIL: $*" >&2
    printf 'FAIL: %s\n' "$*" > "$OUT/FAILED" 2>/dev/null
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    exit 1
}

# Preflight failures (nothing to test: binary missing, no writable
# socket dir) must not look like a quiet green run OR like a bare
# shell error with an empty artifact.  Leave a SKIPPED marker in the
# uploaded artifact dir and exit non-zero so CI surfaces the reason.
skip() {
    echo "service_smoke: SKIP (treated as failure): $*" >&2
    printf 'SKIPPED: %s\n' "$*" > "$OUT/SKIPPED" 2>/dev/null
    exit 1
}

[ -x "$REPAIRD" ] || skip "daemon binary not built: $REPAIRD"
[ -x "$CLI" ] || skip "client binary not built: $CLI"

WORK="$(mktemp -d)" \
    || skip "mktemp -d failed: no writable temp dir for the socket"
[ -d "$WORK" ] && [ -w "$WORK" ] \
    || skip "socket dir $WORK is not writable"
SOCK="$WORK/repaird.sock"
JOURNAL="$WORK/repaird.journal"

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

# ----------------------------------------------------------------
# Fixtures: a repairable counter (wrong reset constant), its trace,
# and an unparsable design.
# ----------------------------------------------------------------
cat > "$WORK/design.v" <<'EOF'
module counter (input clk, input rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd3;
        else q <= q + 4'd1;
    end
endmodule
EOF
cat > "$WORK/trace.csv" <<'EOF'
in:rst,out:q
b1,bxxxx
b0,b0000
b0,b0001
b0,b0010
b0,b0011
b1,b0100
b0,b0000
b0,b0001
EOF
cat > "$WORK/bad_design.v" <<'EOF'
module broken (input clk this is not verilog
EOF
# A long consistent trace for the SIGKILL burst: enough simulation
# work per job (~0.2s) that the kill reliably lands mid-flight.
python3 - "$WORK/long_trace.csv" <<'EOF'
import sys
q, rst, rows = None, 1, ["in:rst,out:q"]
for i in range(30000):
    rows.append("b%d,b%s" % (rst, "xxxx" if q is None else format(q, "04b")))
    q = 0 if rst else (q + 1) % 16
    rst = 1 if i % 16 == 15 else 0
open(sys.argv[1], "w").write("\n".join(rows) + "\n")
EOF

# Raw NDJSON client.  Modes:
#   submit <sock> <id> <design> <trace> <transcript>  (exit = job exit_code)
#   malformed <sock> <transcript>
#   burst <sock> <n> <design> <trace> <transcript>    (submit n jobs, hold)
#   recover <sock> <transcript>                       (print interrupted ids)
cat > "$WORK/raw_client.py" <<'EOF'
import json, socket, sys

def connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    return s, s.makefile("rwb")

def lines(f, transcript):
    for raw in f:
        transcript.write(raw.decode())
        transcript.flush()
        yield json.loads(raw)

def send(f, obj):
    f.write((json.dumps(obj) + "\n").encode())
    f.flush()

def main():
    mode, sock = sys.argv[1], sys.argv[2]
    s, f = connect(sock)
    if mode == "submit":
        jid, design, trace, out = sys.argv[3:7]
        with open(design) as d, open(trace) as t, open(out, "w") as tr:
            send(f, {"v": 1, "type": "submit", "id": jid,
                     "design": d.read(), "trace": t.read()})
            for msg in lines(f, tr):
                if msg.get("type") == "rejected" and msg.get("id") == jid:
                    sys.exit(6)
                if msg.get("type") == "result" and msg.get("id") == jid:
                    sys.exit(int(msg.get("exit_code", 5)))
        sys.exit(5)  # connection closed without a result
    if mode == "malformed":
        out = sys.argv[3]
        with open(out, "w") as tr:
            f.write(b"this is not json\n")
            f.flush()
            send(f, {"v": 1, "type": "ping"})
            got_error = got_pong = False
            for msg in lines(f, tr):
                got_error |= msg.get("type") == "error"
                got_pong |= msg.get("type") == "pong"
                if got_error and got_pong:
                    sys.exit(0)
        sys.exit(1)  # server died or hung instead of answering
    if mode == "burst":
        n, design, trace, out = sys.argv[3:7]
        with open(design) as d, open(trace) as t:
            dsrc, tsrc = d.read(), t.read()
        with open(out, "w") as tr:
            for i in range(int(n)):
                # distinct ids, so the idempotent-id path cannot
                # collapse the burst into one unit of work
                send(f, {"v": 1, "type": "submit", "id": "burst-%d" % i,
                         "design": dsrc, "trace": tsrc})
            print("SUBMITTED", flush=True)
            for _ in lines(f, tr):  # drain until the daemon dies
                pass
        sys.exit(0)
    if mode == "recover":
        out = sys.argv[3]
        with open(out, "w") as tr:
            send(f, {"v": 1, "type": "recover"})
            for msg in lines(f, tr):
                if msg.get("type") == "recovered":
                    for job in msg.get("jobs", []):
                        print(job["id"])
                    sys.exit(0)
        sys.exit(1)
    sys.exit(2)

main()
EOF

start_daemon() {  # start_daemon <log> [extra args...]
    local log="$1"; shift
    "$REPAIRD" --listen "$SOCK" --journal "$JOURNAL" --workers 2 \
        "$@" > "$log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 50); do
        [ -S "$SOCK" ] && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on start"
        sleep 0.1
    done
    fail "daemon never created $SOCK"
}

# ----------------------------------------------------------------
# Phase 1: a poisoned job degrades alone.
# ----------------------------------------------------------------
echo "--- phase 1: injected fault is contained"
start_daemon "$OUT/daemon1.log" --inject-fault parse:panic:1
python3 "$WORK/raw_client.py" submit "$SOCK" faulted \
    "$WORK/design.v" "$WORK/trace.csv" "$OUT/client-faulted.ndjson"
rc=$?
[ "$rc" -eq 5 ] || fail "faulted job: want exit 5 (internal), got $rc"
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died with the faulted job"

# ----------------------------------------------------------------
# Phase 2: concurrent good / malformed / bad-design clients.
# ----------------------------------------------------------------
echo "--- phase 2: concurrent clients"
pids=""
for i in 1 2 3; do
    "$CLI" "$WORK/design.v" "$WORK/trace.csv" --connect "$SOCK" \
        --id "good-$i" --out "$WORK/repaired-$i.v" \
        > "$OUT/client-good-$i.log" 2>&1 &
    pids="$pids good:$!"
done
python3 "$WORK/raw_client.py" malformed "$SOCK" \
    "$OUT/client-malformed.ndjson" &
pids="$pids malformed:$!"
"$CLI" "$WORK/bad_design.v" "$WORK/trace.csv" --connect "$SOCK" \
    --id bad-design > "$OUT/client-bad.log" 2>&1 &
pids="$pids bad:$!"

for entry in $pids; do
    kind="${entry%%:*}"; pid="${entry##*:}"
    wait "$pid"; rc=$?
    case "$kind" in
      good) [ "$rc" -eq 0 ] || fail "good client: want exit 0, got $rc" ;;
      malformed) [ "$rc" -eq 0 ] || fail "malformed client: error+pong not seen (rc=$rc)" ;;
      bad) [ "$rc" -eq 4 ] || fail "bad-design client: want exit 4, got $rc" ;;
    esac
done
for i in 1 2 3; do
    grep -q "4'b0000" "$WORK/repaired-$i.v" \
        || fail "good client $i: repaired design missing the fix"
done
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during phase 2"

# ----------------------------------------------------------------
# Phase 3: SIGKILL with jobs in flight.
# ----------------------------------------------------------------
echo "--- phase 3: SIGKILL mid-burst"
python3 "$WORK/raw_client.py" burst "$SOCK" 12 \
    "$WORK/design.v" "$WORK/long_trace.csv" "$OUT/client-burst.ndjson" \
    > "$WORK/burst.out" &
BURST_PID=$!
for _ in $(seq 100); do
    grep -q SUBMITTED "$WORK/burst.out" 2>/dev/null && break
    sleep 0.05
done
grep -q SUBMITTED "$WORK/burst.out" || fail "burst client never submitted"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=""
wait "$BURST_PID" 2>/dev/null

# ----------------------------------------------------------------
# Phase 4: restart reports the lost jobs as interrupted.
# ----------------------------------------------------------------
echo "--- phase 4: journal recovery after SIGKILL"
start_daemon "$OUT/daemon2.log"
grep -q "interrupted job from previous run" "$OUT/daemon2.log" \
    || fail "restarted daemon did not report interrupted jobs"
python3 "$WORK/raw_client.py" recover "$SOCK" \
    "$OUT/client-recover-1.ndjson" > "$WORK/interrupted.txt" \
    || fail "recover request failed"
grep -q "^burst-" "$WORK/interrupted.txt" \
    || fail "no burst job reported as interrupted"
echo "    interrupted: $(tr '\n' ' ' < "$WORK/interrupted.txt")"

# ----------------------------------------------------------------
# Phase 5: clean final sweep.
# ----------------------------------------------------------------
echo "--- phase 5: resubmit and drain"
while read -r jid; do
    [ -n "$jid" ] || continue
    python3 "$WORK/raw_client.py" submit "$SOCK" "$jid" \
        "$WORK/design.v" "$WORK/trace.csv" \
        "$OUT/client-resubmit-$jid.ndjson"
    rc=$?
    [ "$rc" -eq 0 ] || fail "resubmitted $jid: want exit 0, got $rc"
done < "$WORK/interrupted.txt"
python3 "$WORK/raw_client.py" recover "$SOCK" \
    "$OUT/client-recover-2.ndjson" > "$WORK/interrupted2.txt" \
    || fail "second recover request failed"
[ -s "$WORK/interrupted2.txt" ] \
    && fail "interrupted jobs survived the resubmission sweep:" \
            "$(cat "$WORK/interrupted2.txt")"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"; rc=$?
DAEMON_PID=""
[ "$rc" -eq 0 ] || fail "graceful shutdown: want exit 0, got $rc"
grep -q "repaird: stopped" "$OUT/daemon2.log" \
    || fail "daemon log missing clean-shutdown marker"

echo "service_smoke: ok"
