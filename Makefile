# Tier-1 verification plus the race and static-analysis gates.
#
#   make verify   - build, full test suite, go vet, and iocovlint (tier-1)
#   make race     - the same tests under the race detector; the parallel
#                   worker-pool path (harness.RunParallel) makes this the
#                   gate for shard-isolation regressions
#   make vet      - the standard go vet checks
#   make lint     - iocovlint: speccheck, shardcheck, errcheck, lockcheck,
#                   alloccheck, leakcheck, determcheck (seven passes) over
#                   the whole repository (exit 1 on any finding); -v prints
#                   per-pass analysis times
#   make fuzz     - short fuzz passes over the binary trace codec, the text
#                   trace parser and the mount filter
#
# Every go test line carries -timeout, so an analysis or test that stops
# terminating fails in minutes instead of the default ten.
#   make smoke    - end-to-end iocovd daemon smoke test (ingest, report,
#                   metrics, graceful shutdown, checkpoint-restore identity)
#                   plus the CPU-aware parallel-scaling wall-clock check
#   make evolve-smoke - fixed-seed evolve run: untested count strictly
#                   decreases, replay verifies, and corpus + snapshot are
#                   byte-stable across two runs
#   make bench    - serial-vs-parallel suite benchmarks
#   make bench-json - full benchmark suite, parsed to BENCH_$(LABEL).json
#                   (ns/op, B/op, allocs/op per benchmark) for the perf
#                   trajectory across PRs
#   make figures  - regenerate the paper's evaluation figures

GO ?= go
LABEL ?= dev

.PHONY: verify race vet lint fuzz smoke evolve-smoke bench bench-json figures

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

smoke:
	./scripts/smoke_iocovd.sh
	./scripts/smoke_parallel.sh

evolve-smoke:
	./scripts/smoke_evolve.sh

bench:
	$(GO) test -timeout 10m -run xxx -bench SuiteSerialVsParallel -benchtime 3x .

bench-json:
	$(GO) test -timeout 10m -run xxx -bench . -benchtime 2x -benchmem . \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -o BENCH_$(LABEL).json

figures:
	$(GO) run ./cmd/figures
