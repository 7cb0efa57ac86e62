#!/usr/bin/env bash
# Parallel-scaling smoke assertion, run by CI and `make smoke`: the
# RunParallel worker pool must never be a wall-clock pessimization.
# The actual timing and the CPU-aware bar (workers=4 must beat serial on
# >= 4 CPUs; at most 1.35x serial on smaller runners, where genuine
# scaling is physically impossible) live in TestParallelScalingSmoke,
# which is env-gated so ordinary `go test ./...` runs — and the race
# detector, which would skew any timing — never trip on wall-clock noise.
set -euo pipefail

cd "$(dirname "$0")/.."
echo "smoke_parallel: GOMAXPROCS-aware wall-clock check (nproc=$(nproc 2>/dev/null || echo '?'))"
IOCOV_SCALING_SMOKE=1 exec go test -timeout 5m -count=1 -run TestParallelScalingSmoke -v ./internal/harness/
