# Tier-1 gate: `make ci` must pass before merging. Pure Go, no dependencies.

GO ?= go

.PHONY: ci fmt vet build test race fuzz bench benchpairs benchsmoke profilesmoke clismoke serve

ci: fmt vet build race benchsmoke profilesmoke clismoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Every native fuzz target, FUZZTIME each (go test runs one target per
# invocation). Their seed corpora under testdata/fuzz/ already run in plain
# `go test`, so this is exploration, not a gate, and stays out of ci.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckBounds$$' -fuzztime $(FUZZTIME) ./internal/interp/
	$(GO) test -run '^$$' -fuzz '^FuzzSimRecord$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRunResponseJSON$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzArtifactEnvelope$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzProgramJSON$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime $(FUZZTIME) ./internal/arch/
	$(GO) test -run '^$$' -fuzz '^FuzzDRAMExact$$' -fuzztime $(FUZZTIME) ./internal/dram/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSolverResult$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreSegment$$' -fuzztime $(FUZZTIME) ./internal/store/

# The benchmark harness (all four ./bench workloads, end-to-end metrics; see
# bench/README.md) and the root package's figure and engine benchmarks.
bench:
	$(GO) run ./bench
	$(GO) test -bench=. -benchmem

# Alternated benchmark pairs, how a change's end-to-end gain is measured:
# builds ./bench from the commit BASE (exported under TMPDIR) and from the
# working tree, runs PAIRS pairs of one WORKLOAD at SEED, the two builds in
# turn so both see the same host (the base first in odd pairs, the working
# tree first in even ones), appends each build's records to its own result
# file, and prints `bench -compare` on the two. For example
#   make benchpairs BASE=HEAD~1 WORKLOAD=kernels PAIRS=10 SEED=7
BASE ?= HEAD
WORKLOAD ?= kernels
PAIRS ?= 10
SEED ?= 1
benchpairs:
	@set -e; dir=$${TMPDIR:-/tmp}/sara-benchpairs; rm -rf $$dir; mkdir -p $$dir/base; \
	git archive $(BASE) | tar -x -C $$dir/base; \
	(cd $$dir/base && $(GO) build -o $$dir/bench-base ./bench); \
	$(GO) build -o $$dir/bench-new ./bench; \
	for i in $$(seq $(PAIRS)); do \
		echo "pair $$i of $(PAIRS)"; \
		order="base new"; [ $$((i % 2)) -eq 0 ] && order="new base"; \
		for side in $$order; do \
			$$dir/bench-$$side -workload $(WORKLOAD) -seed $(SEED) -out $$dir/out -o $$dir/$$side.json >/dev/null; \
		done; \
	done; \
	echo "results: $$dir/base.json $$dir/new.json"; \
	$$dir/bench-new -compare $$dir/base.json $$dir/new.json

# One iteration of the engine comparison (event and dense) and of each
# package benchmark: catches bit-rot without paying for a full timing run.
# BenchmarkPlace shows the placer's time and allocation count on its two
# largest benchmark designs outside ./bench; BenchmarkSimulate does the same
# for the simulator (time per firing, engine visits, fast-forward capture
# words, jumps and jumps over drifts, bytes and allocations per run on eight
# placed designs) and is its
# profiling entry point (add -cpuprofile); BenchmarkSolver is the solver's —
# the rf and ms par-64 compiles of ./bench's solver workload: ms/compile, the
# wall time of one whole compile; us/node, that time over the branch-and-bound
# nodes the compile explored (instances the passes' memo answered explore
# none, so they are not counted); and allocations per compile; BenchmarkRunHit is the
# serving hit path's — one in-process /v1/run answered from the LRU and the
# result memo, time and allocations per request — and BenchmarkRunProxied the
# proxy hop's: a design's first request at a non-owner of a 2-node cluster,
# answered with the owner's artifact and result record; BenchmarkCompile is the
# compile path's — cold traversal compiles of ./bench's serve-sweep designs,
# time and allocations per 24 compiles; BenchmarkStore is the design store's
# disk tier — 300 Puts of serve-hot's (1.8 KB) or serve-sweep's (7.4 KB) mean
# record into a fresh directory, a reopen and a Get of each, time and
# allocations per 300 records. (The incremental cross-mode
# equivalence suite runs under the `race` target, which ci already includes.)
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkCycleEngine -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkPlace -benchtime 1x ./internal/place/
	$(GO) test -run '^$$' -bench BenchmarkCompile -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkSimulate -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkSolver -benchtime 1x ./internal/partition/
	$(GO) test -run '^$$' -bench 'BenchmarkRunHit|BenchmarkRunProxied' -benchtime 1x -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench BenchmarkStore -benchtime 1x -benchmem ./internal/store/

# End-to-end profiler smoke: one profiled run producing both artifacts —
# the stall-attribution report and a Chrome trace-event export.
profilesmoke:
	$(GO) run ./cmd/sarasim -workload mlp -par 4 -scale 16 \
		-profile $${TMPDIR:-/tmp}/sara_profile_smoke.json -profile-report >/dev/null

# CLI smoke: parse each CLI's flags and run a small search (on both chip
# presets; the first writes both exports, -o JSON and -csv), a compile, a
# Table V experiment with its CSV, and the quickstart
# example (sara.Design.Simulate) end to end; sarasim must refuse an unknown
# chip. The same compile twice over one fresh store directory is the
# cross-process restart: the first run restores no stage, the second all 8.
clismoke:
	dir=$${TMPDIR:-/tmp}; \
	$(GO) run ./cmd/saratune -workload ms -scale 16 -pars 8,16 -channels 4,8 \
		-o $$dir/sara_clismoke_tune.json -csv $$dir/sara_clismoke_tune.csv >/dev/null && \
	test -s $$dir/sara_clismoke_tune.json && test -s $$dir/sara_clismoke_tune.csv
	$(GO) run ./cmd/saratune -workload ms -scale 16 -pars 8 -chip v1 >/dev/null
	$(GO) run ./cmd/saratune -workload pr -scale 4 -pars 16,32 -chip v1 >/dev/null
	$(GO) run ./cmd/sarac -workload bs -par 4 -scale 64 >/dev/null
	@dir=$${TMPDIR:-/tmp}/sara_clismoke_store; rm -rf $$dir; \
	$(GO) run ./cmd/sarac -workload ms -par 16 -scale 16 -store $$dir | grep -q 'restored 0/8 stages' && \
	$(GO) run ./cmd/sarac -workload ms -par 16 -scale 16 -store $$dir | grep -q 'restored 8/8 stages' || \
	{ echo "sarac did not restore every stage from its own store"; exit 1; }
	! $(GO) run ./cmd/sarasim -workload bs -par 4 -scale 64 -chip nope 2>/dev/null
	$(GO) run ./cmd/saraeval -exp table5 -csv $${TMPDIR:-/tmp}/sara_eval_csv >/dev/null
	$(GO) run ./examples/quickstart >/dev/null

# Run the compile-and-simulate daemon locally.
serve:
	$(GO) run ./cmd/sarad -addr :8080
