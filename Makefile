# Tier-1 verification plus the race and static-analysis gates.
#
#   make verify   - build, full test suite, go vet, and iocovlint (tier-1)
#   make race     - the same tests under the race detector; the parallel
#                   worker-pool path (harness.RunParallel) makes this the
#                   gate for shard-isolation regressions (shared state
#                   written by two shards)
#   make vet      - the standard go vet checks
#   make lint     - iocovlint: speccheck, shardcheck, errcheck (three
#                   passes) over the whole repository (exit 1 on any
#                   finding); -v prints per-pass analysis times. The
#                   zero-allocation per-event path is guarded by tests, not
#                   lint: the allocation pins CI selects by name
#   make fuzz     - short fuzz passes over the binary trace codec, the text
#                   trace parser, the mount filter, checkpoint restore, the
#                   snapshot JSON writer (against encoding/json) and the
#                   vfs read/write oracle
#
# Every go test line carries -timeout, so an analysis or test that stops
# terminating fails in minutes instead of the default ten.
#   make smoke    - end-to-end iocovd daemon smoke test (ingest, report,
#                   metrics, graceful shutdown, checkpoint-restore identity)
#                   plus the CPU-aware parallel-scaling wall-clock check
#   make evolve-smoke - fixed-seed evolve run: untested count strictly
#                   decreases, replay verifies, and corpus + snapshot are
#                   byte-stable across two runs
#   make bench    - serial-vs-parallel suite benchmarks (the benchmark of
#                   record, with every sample and a per-layer breakdown, is
#                   bench/run.sh; see bench/README.md)
#   make profile  - a 12 s CPU profile of the per-event path, written to
#                   cpu.out (BenchmarkProfileRunParallel: xfstests on two
#                   workers at scale 0.002, input seeds 1000-1007); read it
#                   with `go tool pprof -top iocov.test cpu.out`
#   make figures  - regenerate the paper's evaluation figures

GO ?= go

.PHONY: verify race vet lint fuzz smoke evolve-smoke bench profile figures

verify:
	$(GO) build ./...
	$(GO) test -timeout 5m ./...
	$(MAKE) vet
	$(MAKE) lint

race:
	$(GO) test -race -timeout 15m ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/iocovlint -v

fuzz:
	$(GO) test -timeout 5m -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 15s ./internal/trace/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzBinaryReaderMalformed -fuzztime 15s ./internal/trace/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzTextParser -fuzztime 15s ./internal/trace/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzFilter -fuzztime 15s ./internal/trace/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzSnapshotRestore -fuzztime 15s ./internal/coverage/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzSnapshotJSON -fuzztime 15s ./internal/coverage/
	$(GO) test -timeout 5m -run xxx -fuzz FuzzReadWriteOracle -fuzztime 15s ./internal/vfs/

smoke:
	./scripts/smoke_iocovd.sh
	./scripts/smoke_parallel.sh

evolve-smoke:
	./scripts/smoke_evolve.sh

bench:
	$(GO) test -timeout 10m -run xxx -bench SuiteSerialVsParallel -benchtime 3x .

profile:
	$(GO) test -timeout 5m -run xxx -bench ProfileRunParallel -benchtime 12s -cpuprofile cpu.out .

figures:
	$(GO) run ./cmd/figures
