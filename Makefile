# Tier-1 gate: `make ci` must pass before merging. Pure Go, no dependencies.

GO ?= go

.PHONY: ci fmt vet build test race fuzz bench benchsmoke profilesmoke servesmoke tunesmoke serve

ci: fmt vet build race benchsmoke profilesmoke servesmoke tunesmoke

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

bench:
	$(GO) run ./cmd/sarabench -o BENCH_sim.json -compile-o BENCH_compile.json \
		-serve-o BENCH_serve.json -tune-o BENCH_tune.json
	$(GO) test -bench=. -benchmem

# One iteration of the engine comparison (event and dense) plus a tiny
# compile-benchmark subset — including one incremental design-store replay
# row: catches bit-rot in all harnesses without paying for a full timing run. BenchmarkPlace shows the
# placer's time and allocation count on its two largest benchmark designs
# outside ./bench; BenchmarkSimulate does the same for the simulator (time per
# firing, bytes and allocations per run on five placed designs) and is its
# profiling entry point (add -cpuprofile); BenchmarkSolver is the solver's —
# the rf and ms par-64 compiles of ./bench's solver workload, time per
# branch-and-bound node and allocations per compile; BenchmarkRunHit is the
# serving hit path's — one in-process /v1/run answered from the LRU and the
# result memo, time and allocations per request — and BenchmarkRunProxied the
# proxy hop's: a design's first request at a non-owner of a 2-node cluster,
# answered with the owner's artifact and result record; BenchmarkCompile is the
# compile path's — cold traversal compiles of ./bench's serve-sweep designs,
# time and allocations per 24 compiles. The smoke compile report
# goes to a scratch path — only `make bench` refreshes the committed BENCH
# files. (The incremental cross-mode equivalence suite runs under the `race`
# target, which ci already includes.)
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkCycleEngine -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkPlace -benchtime 1x ./internal/place/
	$(GO) test -run '^$$' -bench BenchmarkCompile -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkSimulate -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkSolver -benchtime 1x ./internal/partition/
	$(GO) test -run '^$$' -bench 'BenchmarkRunHit|BenchmarkRunProxied' -benchtime 1x -benchmem ./internal/server/
	$(GO) run ./cmd/sarabench -mode compile -smoke -compile-reps 1 \
		-compile-o $${TMPDIR:-/tmp}/BENCH_compile_smoke.json

# Cluster serving smoke: boots a tiny in-process 3-node sarad cluster under
# the race detector and replays a short cut of every request mix (hot/cold
# cache, profile toggle, incremental recompiles) through the
# consistent-hash proxy path. Any failed request fails the target. The
# cluster fault-injection and cross-node single-flight suites run under the
# `race` target, which ci already includes.
servesmoke:
	$(GO) run -race ./cmd/sarabench -mode serve -smoke \
		-serve-o $${TMPDIR:-/tmp}/BENCH_serve_smoke.json

# End-to-end profiler smoke: one profiled run producing both artifacts —
# the stall-attribution report and a Chrome trace-event export.
profilesmoke:
	$(GO) run ./cmd/sarasim -workload mlp -par 4 -scale 16 \
		-profile $${TMPDIR:-/tmp}/sara_profile_smoke.json -profile-report >/dev/null

# Autotuner smoke: one tiny deterministic search (12-point ms space) under
# the race detector, exercising the full explore → prune → validate loop,
# the design store, and the export path. The determinism, brute-force
# equivalence, and analytic-soundness suites run under the `race` target,
# which ci already includes.
tunesmoke:
	$(GO) run -race ./cmd/sarabench -mode tune -smoke \
		-tune-o $${TMPDIR:-/tmp}/BENCH_tune_smoke.json

# Run the compile-and-simulate daemon locally.
serve:
	$(GO) run ./cmd/sarad -addr :8080
