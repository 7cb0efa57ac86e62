#!/usr/bin/env bash
# Smoke test for the iocovd daemon, run by CI and `make smoke`:
#
#   1. start iocovd with checkpointing enabled;
#   2. stream a suite run to it with `iocov run -remote`;
#   3. assert /report, /metrics, /tcd, and /healthz answer sensibly;
#   4. SIGTERM the daemon and require a graceful exit 0 within 60 s, so a
#      shutdown that waits on a goroutine that never returns fails here;
#   5. restart on the same checkpoint and require /report to be
#      byte-identical to the pre-kill snapshot;
#   6. stream one more run to the restarted daemon and require its /report
#      to be byte-identical to a second daemon that received both runs and
#      never restarted.
set -euo pipefail

addr=127.0.0.1:19077
addr2=127.0.0.1:19078
workdir=$(mktemp -d)
dpid=""
cleanup() {
    [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

wait_ready() {
    for i in $(seq 1 50); do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "FAIL: iocovd at $1 never became ready"
    exit 1
}

# stop_daemon sends SIGTERM and allows the 30 s default drain plus margin;
# $1 is the daemon's log, printed on failure.
stop_daemon() {
    kill -TERM "$dpid"
    for i in $(seq 1 600); do
        kill -0 "$dpid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$dpid" 2>/dev/null; then
        echo "FAIL: iocovd still running 60s after SIGTERM"
        cat "$1"
        exit 1
    fi
    if ! wait "$dpid"; then
        echo "FAIL: iocovd exited non-zero on SIGTERM"
        cat "$1"
        exit 1
    fi
    dpid=""
}

echo "smoke: building binaries"
go build -o "$workdir/iocovd" ./cmd/iocovd
go build -o "$workdir/iocov" ./cmd/iocov

ckpt="$workdir/iocovd.ckpt.json"
"$workdir/iocovd" -addr "$addr" -checkpoint "$ckpt" -checkpoint-every 2s \
    >"$workdir/iocovd.log" 2>&1 &
dpid=$!

echo "smoke: streaming crashmonkey shards to $addr"
"$workdir/iocov" run -suite crashmonkey -scale 0.05 -remote "$addr"

echo "smoke: checking endpoints"
curl -fsS "$addr/healthz" | grep -q '"status": "ok"' \
    || { echo "FAIL: /healthz not ok"; exit 1; }
curl -fsS "$addr/report" > "$workdir/prekill.json"
grep -q '"analyzed": [1-9]' "$workdir/prekill.json" \
    || { echo "FAIL: /report has no analyzed events"; exit 1; }
metrics=$(curl -fsS "$addr/metrics")
echo "$metrics" | grep -q '^iocovd_sessions_merged_total [1-9]' \
    || { echo "FAIL: no sessions merged"; exit 1; }
echo "$metrics" | grep -q '^iocovd_events_ingested_total [1-9]' \
    || { echo "FAIL: no events ingested"; exit 1; }
echo "$metrics" | grep -q 'iocovd_syscall_partition_hits_total{syscall="open"}' \
    || { echo "FAIL: no per-syscall hit counters"; exit 1; }
curl -fsS "$addr/tcd?syscall=open&arg=flags&target=100" | grep -q '"tcd":' \
    || { echo "FAIL: /tcd gave no deviation"; exit 1; }

echo "smoke: graceful shutdown"
stop_daemon "$workdir/iocovd.log"
[ -s "$ckpt" ] || { echo "FAIL: no final checkpoint"; exit 1; }

echo "smoke: checkpoint-restore byte identity"
"$workdir/iocovd" -addr "$addr" -checkpoint "$ckpt" \
    >"$workdir/iocovd2.log" 2>&1 &
dpid=$!
wait_ready "$addr"
curl -fsS "$addr/report" > "$workdir/restored.json"
cmp "$workdir/prekill.json" "$workdir/restored.json" \
    || { echo "FAIL: restored /report differs from pre-kill snapshot"; exit 1; }

echo "smoke: restored state merges like a live one"
"$workdir/iocov" run -suite crashmonkey -scale 0.05 -seed 2 -remote "$addr"
curl -fsS "$addr/report" > "$workdir/restored-plus.json"
stop_daemon "$workdir/iocovd2.log"

"$workdir/iocovd" -addr "$addr2" >"$workdir/iocovd3.log" 2>&1 &
dpid=$!
wait_ready "$addr2"
"$workdir/iocov" run -suite crashmonkey -scale 0.05 -remote "$addr2"
"$workdir/iocov" run -suite crashmonkey -scale 0.05 -seed 2 -remote "$addr2"
curl -fsS "$addr2/report" > "$workdir/unrestarted.json"
stop_daemon "$workdir/iocovd3.log"
cmp "$workdir/restored-plus.json" "$workdir/unrestarted.json" \
    || { echo "FAIL: restore-then-ingest /report differs from a daemon that never restarted"; exit 1; }

echo "smoke: OK"
