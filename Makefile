GO ?= go

# Output file for bench-json; override to capture a non-baseline report,
# e.g. `make bench-json BENCH_OUT=BENCH_pr2.json`.
BENCH_OUT ?= BENCH_baseline.json
# Baseline that bench-compare and bench-check diff against. Point it at
# the newest BENCH_*.json that bench-gate accepted; rows absent from it
# print as "missing".
BENCH_BASE ?= BENCH_baseline.json
# Benchtime for the quick bench-compare pass inside `make check`.
BENCHTIME ?= 100x
# Number of independent benchmark runs bench-gate feeds the stability
# gate; must be >= 3.
GATE_RUNS ?= 3

.PHONY: all check build vet test test-short race race-equiv obs-check service-check fabric-check lab-check bench bench-json bench-compare bench-check bench-gate fuzz fuzz-short chaos experiments experiments-full cover clean

all: check

# check fails fast on the determinism contracts (race-equiv) before the
# full -race sweep, then runs the robustness gates (short fuzz pass over
# the decoders, randomized chaos resume grid) and ends with a warn-only
# benchmark comparison.
check: build vet test race-equiv obs-check service-check fabric-check lab-check race fuzz-short chaos bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# race-equiv runs just the pooling/checkpoint/packing determinism
# contracts under the race detector: the pooled Runner's buffer reuse,
# the done-hint counter, snapshot/resume's state capture and the packed
# layout's promotion path must each stay bit-identical to a fresh
# unpacked run.
race-equiv:
	$(GO) test -race -run 'TestPooledRun|TestDoneHint|TestResumeEquivalence|TestPackedEquivalence' .

# obs-check runs the observability layer's concurrency-sensitive tests
# under the race detector — the metrics registry, the shared event sink,
# and the sweep-progress hooks all take concurrent writers — plus go vet
# on the packages the layer touches.
obs-check:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'TestJSONL|TestProcTracker|TestEnableObs|TestObsCounts|TestWatchdog' ./internal/pram/ ./internal/bench/
	$(GO) vet ./internal/obs/ ./internal/pram/ ./internal/bench/ ./cmd/writeall/ ./cmd/experiments/

# service-check runs the engine/jobs/daemon stack under the race
# detector: the job store's worker pool, SSE hub, and crash-recovery
# paths are all concurrency-heavy, and the pramd chaos drill
# (kill-restart-resume over HTTP) lives in cmd/pramd.
service-check:
	$(GO) test -race ./internal/engine/ ./internal/jobs/ ./cmd/pramd/
	$(GO) vet ./internal/engine/ ./internal/jobs/ ./cmd/pramd/

# fabric-check runs the distributed sweep fabric under the race
# detector with a hard wall-clock cap: the coordinator's lease table,
# the workers' heartbeat pumps, and the chaos kill/restart drill
# (TestChaosSweepKillRestart) are all concurrency-heavy, and a hung
# lease must fail the build rather than wedge it.
fabric-check:
	$(GO) test -race -timeout 10m ./internal/fabric/ ./cmd/pramw/
	$(GO) vet ./internal/fabric/ ./cmd/pramw/

# lab-check runs the adversary strategy lab under the race detector,
# then one short seeded tournament smoke: the pinned σ-frontier head
# for X (TestFrontierPinnedOrdering) and the search-beats-hand-grid
# acceptance run must reproduce exactly — a change anywhere in the
# machine, the adversaries, or the lab that reorders them is a
# behavior change and must be pinned deliberately.
lab-check:
	$(GO) test -race ./internal/advlab/ ./internal/adversary/
	$(GO) vet ./internal/advlab/ ./internal/adversary/
	$(GO) test -count=1 -run 'TestFrontierPinnedOrdering|TestSearchBeatsHandWrittenGrid' ./internal/advlab/

bench:
	$(GO) test -bench . -benchmem ./...

# bench-json regenerates $(BENCH_OUT) (default BENCH_baseline.json): the
# tick-cost and Write-All run benchmarks (per-tick steady state, the
# N=1e7-1e8 packed/batched rows, whole runs) in machine-readable form
# (see cmd/benchjson).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkMachineTick|BenchmarkSteadyState' -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-compare reruns the tracked benchmarks and diffs them against the
# gated baseline $(BENCH_BASE), failing on >25% ns/op or allocs/op
# regressions.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkMachineTick|BenchmarkSteadyState' -benchtime $(BENCHTIME) -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > bench_new.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) bench_new.json

# bench-gate is how a BENCH_*.json snapshot gets minted: a fresh build,
# then $(GATE_RUNS) independent full runs of the tracked tick-cost and
# run benchmarks (the same set as bench-json), each
# converted to JSON, fed to benchjson -gate, which rejects >10% cross-run
# spread on any tracked metric. Only a stable machine produces a
# baseline; the accepted report (the per-metric median) lands in
# $(BENCH_OUT), and a refused gate leaves no $(BENCH_OUT) behind.
bench-gate: build
	@rm -f bench_gate_*.json
	@for i in $$(seq 1 $(GATE_RUNS)); do \
		echo "bench-gate: run $$i of $(GATE_RUNS)"; \
		$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkMachineTick|BenchmarkSteadyState' -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > bench_gate_$$i.json || exit 1; \
	done
	$(GO) run ./cmd/benchjson -gate bench_gate_*.json > bench_gate.tmp || { rm -f bench_gate.tmp; exit 1; }
	@mv bench_gate.tmp $(BENCH_OUT)
	@rm -f bench_gate_*.json
	@echo "bench-gate: accepted -> $(BENCH_OUT)"

# bench-check is bench-compare in warn-only form for `make check`: a short
# benchtime keeps it fast, and the leading '-' keeps noisy regressions
# from failing the whole check (run `make bench-compare` for the strict
# version at default benchtime).
bench-check:
	-$(MAKE) bench-compare BENCHTIME=$(BENCHTIME)

fuzz:
	$(GO) test -fuzz FuzzWriteAllUnderRandomPatterns -fuzztime 30s ./internal/writeall/
	$(GO) test -fuzz FuzzReadSnapshot -fuzztime 30s ./internal/pram/
	$(GO) test -fuzz FuzzReadPattern -fuzztime 30s ./internal/adversary/
	$(GO) test -fuzz FuzzParseStrategy -fuzztime 30s ./internal/advlab/

# fuzz-short gives the harness-input decoders (snapshot binary format,
# failure-pattern JSON, adversary-strategy JSON) a brief randomized
# shake beyond their committed corpora; cheap enough to live inside
# `make check`.
fuzz-short:
	$(GO) test -fuzz FuzzReadSnapshot -fuzztime 5s ./internal/pram/
	$(GO) test -fuzz FuzzReadPattern -fuzztime 5s ./internal/adversary/
	$(GO) test -fuzz FuzzParseStrategy -fuzztime 5s ./internal/advlab/

# chaos runs the randomized crash/resume grid: checkpointed runs under
# injected snapshot-I/O faults (torn writes, bit corruption, failing
# fsync/rename) must still reproduce the fault-free metrics exactly.
# The seed is printed; replay a failure with PRAM_CHAOS_SEED=<seed>.
chaos:
	PRAM_CHAOS=1 $(GO) test -run TestChaosResumeEquivalence -count=1 -v .

experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -full

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_new.json bench_gate_*.json bench_gate.tmp
	rm -rf pramd.state
