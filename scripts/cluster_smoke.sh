#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the coordinator/worker cluster
# with real processes: the same streamed assessment job — delegated as a
# one-point sweepgroup task — and the same multipart sweep, partitioned
# into perturbation-group tasks, must return byte-identical results from
# a single-process server, a 1-worker cluster and a 2-worker cluster; a
# synchronous streamed assessment on the 2-worker cluster runs on the
# coordinator itself — it enqueues no sketch or score task — and must
# match the single-process response; and the CSV stays at the
# coordinator: cluster B's CAS must hold the upload's float64 spool,
# <sha256>.f64, and no <sha256> CSV blob. This is the process-level
# version of the in-process identity tests
# (TestClusterAssessByteIdentity, TestClusterSweepDelegationByteIdentity),
# run in CI so the flag wiring, the worker role and the shared state
# dir are exercised the way an operator would.
#
# Usage: scripts/cluster_smoke.sh
#
# POSIX sh, same portability rules as bench.sh. Needs curl.
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=""
cleanup() {
    # Kill every daemon we started, wait for them to actually exit (so
    # none is still writing into $WORK while we remove it), escalate to
    # KILL for any that ignore TERM, then remove the temp state dir.
    # shellcheck disable=SC2086
    if [ -n "$PIDS" ]; then
        kill $PIDS 2>/dev/null || true
        i=0
        while [ "$i" -lt 20 ]; do
            alive=0
            for pid in $PIDS; do
                kill -0 "$pid" 2>/dev/null && alive=1
            done
            [ "$alive" -eq 0 ] && break
            i=$((i + 1))
            sleep 0.1
        done
        kill -9 $PIDS 2>/dev/null || true
        wait $PIDS 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "building ..." >&2
go build -o "$WORK/randprivd" ./cmd/randprivd
go run ./cmd/randpriv gen -n 600 -m 6 -p 2 -seed 7 -out "$WORK/data.csv"

QUERY='sigma=5&seed=11&stream=1&chunk=32'
# Jobs get their own seed: cluster B's synchronous assess publishes its
# report to B's shared result cache, and a job with the same parameters
# would be served from there instead of running as a delegated task.
JOB_QUERY='sigma=5&seed=12&stream=1&chunk=32'

# A 6-point grid in 6 perturbation groups: enough fan-out that both
# workers of cluster B carry delegated sweepgroup tasks.
cat >"$WORK/grid.json" <<'EOF'
{"defenses":[{"scheme":"additive","sigmas":[4,5]},{"scheme":"correlated","sigmas":[5]}],"seeds":[3,9],"chunk":32,"stream":true}
EOF

# sha256_of FILE — print FILE's hex SHA-256.
sha256_of() {
    if command -v sha256sum >/dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

# wait_http URL — poll until the endpoint answers.
wait_http() {
    i=0
    while ! curl -sf "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "timeout waiting for $1" >&2; exit 1; }
        sleep 0.2
    done
}

# start_daemon PORT ARGS... — start the freshly built randprivd on PORT
# with ARGS and wait until it answers. The ports are fixed, so a process
# left on one (say, by an interrupted earlier run) would answer in the
# new daemon's place while the new one exits on bind, and the smoke
# would silently test the old binary. Refuse a port that already
# answers, and check that the daemon which came up is the one started.
start_daemon() {
    port="$1"
    shift
    if curl -sf "localhost:${port}/healthz" >/dev/null 2>&1; then
        echo "FAIL: something already answers on localhost:${port}; stop it and rerun" >&2
        exit 1
    fi
    "$WORK/randprivd" -addr ":${port}" "$@" &
    pid=$!
    PIDS="$PIDS $pid"
    wait_http "localhost:${port}/healthz"
    kill -0 "$pid" 2>/dev/null || {
        echo "FAIL: randprivd for :${port} exited; another process answers on that port" >&2
        exit 1
    }
}

# run_job PORT OUT — submit the job, poll to completion, store the result.
run_job() {
    port="$1"; out="$2"
    id="$(curl -sf --data-binary @"$WORK/data.csv" \
        "localhost:${port}/v1/jobs?${JOB_QUERY}" \
        | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "job submit on :${port} returned no id" >&2; exit 1; }
    i=0
    while :; do
        state="$(curl -sf "localhost:${port}/v1/jobs/${id}" \
            | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
        case "$state" in
        done) break ;;
        failed | canceled) echo "job ${id} ended ${state}" >&2; exit 1 ;;
        esac
        i=$((i + 1))
        [ "$i" -ge 300 ] && { echo "timeout waiting for job ${id}" >&2; exit 1; }
        sleep 0.2
    done
    curl -sf "localhost:${port}/v1/jobs/${id}/result" >"$out"
}

# run_sweep PORT OUT — submit the multipart sweep, poll, store the
# full-grid result.
run_sweep() {
    port="$1"; out="$2"
    id="$(curl -sf -F "spec=@$WORK/grid.json" -F "data=@$WORK/data.csv" \
        "localhost:${port}/v1/jobs" \
        | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "sweep submit on :${port} returned no id" >&2; exit 1; }
    i=0
    while :; do
        state="$(curl -sf "localhost:${port}/v1/jobs/${id}" \
            | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
        case "$state" in
        done) break ;;
        failed | canceled) echo "sweep ${id} ended ${state}" >&2; exit 1 ;;
        esac
        i=$((i + 1))
        [ "$i" -ge 300 ] && { echo "timeout waiting for sweep ${id}" >&2; exit 1; }
        sleep 0.2
    done
    curl -sf "localhost:${port}/v1/jobs/${id}/result" >"$out"
}

echo "baseline: single process, synchronous assess ..." >&2
mkdir -p "$WORK/spool0"
start_daemon 18080 -spool "$WORK/spool0" -jobs-dir "$WORK/jobs0"
curl -sf --data-binary @"$WORK/data.csv" \
    "localhost:18080/v1/assess?${QUERY}" >"$WORK/base.json"
curl -sf --data-binary @"$WORK/data.csv" \
    "localhost:18080/v1/assess?${JOB_QUERY}" >"$WORK/base_job.json"
run_sweep 18080 "$WORK/base_sweep.json"

echo "cluster A: coordinator (no embedded execution) + 1 worker ..." >&2
mkdir -p "$WORK/spoolA"
start_daemon 18081 -cluster-dir "$WORK/clusterA" -node-id coord-a \
    -cluster-workers -1 -spool "$WORK/spoolA" -jobs-dir "$WORK/jobsA"
start_daemon 18082 -role worker -cluster-dir "$WORK/clusterA" -node-id wa1
run_job 18081 "$WORK/one.json"
# Cluster A's coordinator runs no claim loops and served nothing but the
# job, so its queue shows how a scalar job is delegated: as a one-point
# sweepgroup task. The cluster has no assess task kind.
status_a="$(curl -sf localhost:18081/v1/status)"
echo "$status_a" | grep -q '"sweepgroup"' || {
    echo "FAIL: coordinator A /v1/status shows no sweepgroup task; the job was not delegated as a one-point group" >&2
    exit 1
}
if echo "$status_a" | grep -q '"assess"'; then
    echo "FAIL: coordinator A /v1/status shows an assess task kind" >&2
    exit 1
fi

echo "cluster B: coordinator (no embedded execution) + 2 workers ..." >&2
mkdir -p "$WORK/spoolB"
start_daemon 18083 -cluster-dir "$WORK/clusterB" -node-id coord-b \
    -cluster-workers -1 -spool "$WORK/spoolB" -jobs-dir "$WORK/jobsB"
start_daemon 18084 -role worker -cluster-dir "$WORK/clusterB" -node-id wb1
start_daemon 18085 -role worker -cluster-dir "$WORK/clusterB" -node-id wb2

echo "cluster B: synchronous streamed assess, run on the coordinator ..." >&2
curl -sf --data-binary @"$WORK/data.csv" \
    "localhost:18083/v1/assess?${QUERY}" >"$WORK/two_sync.json"
# A synchronous assess runs on the local engine in every mode; the
# cluster's one task kind is sweepgroup, and the sketch and score kinds
# an older binary enqueued for it must not appear.
status_b="$(curl -sf localhost:18083/v1/status)"
if echo "$status_b" | grep -q -e '"score"' -e '"sketch"'; then
    echo "FAIL: coordinator B /v1/status lists a score or sketch task kind after a synchronous assess" >&2
    exit 1
fi
run_job 18083 "$WORK/two.json"

echo "cluster B: delegated multipart sweep across 2 workers ..." >&2
run_sweep 18083 "$WORK/two_sweep.json"
# The coordinator embeds no claim loops, so a resolved sweepgroup queue
# proves the workers executed the groups.
curl -sf localhost:18083/v1/status | grep -q '"sweepgroup"' || {
    echo "FAIL: coordinator /v1/status shows no sweepgroup tasks; sweep was not delegated" >&2
    exit 1
}
# The coordinator decodes the CSV once, into a float64 spool in the CAS
# keyed on the CSV's SHA-256; the workers read that spool, and the CSV
# itself never enters the cluster dir.
DIGEST="$(sha256_of "$WORK/data.csv")"
[ -f "$WORK/clusterB/cas/${DIGEST}.f64" ] || {
    echo "FAIL: cluster B's CAS holds no ${DIGEST}.f64 spool for the upload" >&2
    exit 1
}
if [ -e "$WORK/clusterB/cas/${DIGEST}" ]; then
    echo "FAIL: cluster B's CAS holds the upload's CSV blob ${DIGEST}" >&2
    exit 1
fi

cmp "$WORK/base_job.json" "$WORK/one.json" || {
    echo "FAIL: 1-worker cluster result differs from single-process baseline" >&2
    exit 1
}
cmp "$WORK/base_job.json" "$WORK/two.json" || {
    echo "FAIL: 2-worker cluster result differs from single-process baseline" >&2
    exit 1
}
cmp "$WORK/base.json" "$WORK/two_sync.json" || {
    echo "FAIL: 2-worker cluster synchronous assess differs from single-process baseline" >&2
    exit 1
}
cmp "$WORK/base_sweep.json" "$WORK/two_sweep.json" || {
    echo "FAIL: delegated sweep result differs from single-process baseline" >&2
    exit 1
}
echo "OK: single-process, 1-worker and 2-worker results (jobs, sync assess and sweep) are byte-identical" >&2
