package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sara/internal/arch"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/workloads"
)

// fingerprint serializes the full pipeline state — plan, graph (VUs, edges,
// adjacency order), per-pass stats, merge assignment, placement — through
// the canonical store codec, so byte equality means bit-identical output.
func fingerprint(t *testing.T, c *Compiled) []byte {
	t.Helper()
	return store.EncodeSnapshot(c.snapshot())
}

func mustCompile(t *testing.T, w *workloads.Workload, p workloads.Params, cfg Config) *Compiled {
	t.Helper()
	c, err := Compile(w.Build(p), cfg)
	if err != nil {
		t.Fatalf("Compile %s par=%d: %v", w.Name, p.Par, err)
	}
	return c
}

// assertIdentical requires bit-identical compiler output and, when asked,
// bit-identical cycle-level execution.
func assertIdentical(t *testing.T, cold, inc *Compiled, simulate bool) {
	t.Helper()
	if !bytes.Equal(fingerprint(t, cold), fingerprint(t, inc)) {
		t.Fatal("incremental compile is not bit-identical to cold compile")
	}
	if cold.MIPNodes() != inc.MIPNodes() {
		t.Errorf("MIPNodes: cold %d, incremental %d", cold.MIPNodes(), inc.MIPNodes())
	}
	if !simulate {
		return
	}
	rc, err := sim.Cycle(cold.Design(), 30_000_000)
	if err != nil {
		t.Fatalf("cycle sim (cold): %v", err)
	}
	ri, err := sim.Cycle(inc.Design(), 30_000_000)
	if err != nil {
		t.Fatalf("cycle sim (incremental): %v", err)
	}
	if rc.Cycles != ri.Cycles || rc.FiredTotal != ri.FiredTotal {
		t.Errorf("sim: cold %d cycles / %d fired, incremental %d / %d",
			rc.Cycles, rc.FiredTotal, ri.Cycles, ri.FiredTotal)
	}
	if rc.DRAM != ri.DRAM {
		t.Errorf("DRAM stats: cold %+v, incremental %+v", rc.DRAM, ri.DRAM)
	}
	for _, kind := range []string{"input-starved", "output-blocked", "token-wait"} {
		if rc.Stalls[kind] != ri.Stalls[kind] {
			t.Errorf("Stalls[%s]: cold %d, incremental %d", kind, rc.Stalls[kind], ri.Stalls[kind])
		}
	}
}

// assertHits checks each stage's restored-vs-recomputed flag.
func assertHits(t *testing.T, c *Compiled, want map[string]bool) {
	t.Helper()
	for stage, hit := range want {
		if got, ok := c.StageHits[stage]; !ok || got != hit {
			t.Errorf("StageHits[%s] = %v (present=%v), want %v", stage, got, ok, hit)
		}
	}
}

// TestIncrementalColdEquivalenceWorkloads is the cross-mode acceptance gate:
// for every registered workload family, a memoized compile — both the
// populating first pass and a fully-restored second pass — must be
// bit-identical to the cold driver, down to cycle-level simulation results.
func TestIncrementalColdEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := workloads.Params{Par: 4, Scale: 64}
			cfg := DefaultConfig()
			cfg.SkipPlace = true
			cold := mustCompile(t, w, p, cfg)

			memo, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Memo = memo
			first := mustCompile(t, w, p, cfg)  // populates the store
			second := mustCompile(t, w, p, cfg) // restores everything

			assertIdentical(t, cold, first, false)
			assertIdentical(t, cold, second, true)
			for _, stage := range []string{"consistency", "lower", "opt-early", "membank", "partition", "opt-late", "merge"} {
				if !second.StageHits[stage] {
					t.Errorf("second compile: stage %s was recomputed, want restored", stage)
				}
				if second.StageHits[stage] {
					if _, ran := second.PhaseTimes[stage]; ran {
						t.Errorf("second compile: restored stage %s has a run-phase time", stage)
					}
				}
			}
			if _, ok := second.PhaseTimes["restore"]; !ok {
				t.Error("second compile: no restore time recorded")
			}
		})
	}
}

// TestIncrementalParOnlyChange pins the par-sweep reuse contract: changing
// only the parallelization factor reuses the par-free consistency analysis
// (every later stage legitimately re-runs — lowering vectorizes and unrolls
// by Par), and the result matches a cold compile at the new factor.
func TestIncrementalParOnlyChange(t *testing.T) {
	w, err := workloads.ByName("rf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SkipPlace = true
	cold := mustCompile(t, w, workloads.Params{Par: 8, Scale: 64}, cfg)

	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = memo
	mustCompile(t, w, workloads.Params{Par: 4, Scale: 64}, cfg)
	inc := mustCompile(t, w, workloads.Params{Par: 8, Scale: 64}, cfg)

	assertHits(t, inc, map[string]bool{
		"consistency": true,
		"lower":       false, "opt-early": false, "membank": false,
		"partition": false, "opt-late": false, "merge": false,
	})
	assertIdentical(t, cold, inc, true)
}

// TestIncrementalParOnlyChangeSolverMemo drives the solver path through a
// par change: compute-partitioning instances are built from block op graphs
// and are therefore par-invariant, so even though the partition stage
// re-runs, its MIP solves all hit the instance memo — and the memoized
// results (including explored-node counts) keep the output bit-identical to
// a cold solve.
func TestIncrementalParOnlyChangeSolverMemo(t *testing.T) {
	solverCfg := func() Config {
		cfg := DefaultConfig()
		cfg.SkipPlace = true
		cfg.Partition.Algo = partition.AlgoSolver
		cfg.Partition.Gap = 0.15
		cfg.Partition.MaxNodes = 60
		cfg.Partition.TimeLimit = time.Minute
		return cfg
	}
	cfg := solverCfg()
	cold, err := Compile(testProg(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PartStats.MIPNodes == 0 {
		t.Fatal("test premise broken: solver partitioning explored no nodes")
	}

	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = memo
	if _, err := Compile(testProg(4), cfg); err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()
	inc, err := Compile(testProg(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := memo.Stats()

	if inc.StageHits["partition"] {
		t.Error("partition stage restored across a par change; its key must include the par digest")
	}
	if after.SolverHits <= before.SolverHits {
		t.Errorf("par change produced no solver-instance memo hits (%d -> %d); instances should be par-invariant",
			before.SolverHits, after.SolverHits)
	}
	assertIdentical(t, cold, inc, false)
}

// TestIncrementalArchGridChange pins the arch-sweep reuse contract: changing
// only the chip's physical grid (rows, columns, unit counts) invalidates
// nothing before placement.
func TestIncrementalArchGridChange(t *testing.T) {
	w, err := workloads.ByName("bs")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Par: 4, Scale: 64}

	small := arch.SARA20x20()
	sm := *small
	sm.Rows, sm.Cols = 16, 16
	sm.NumPCU, sm.NumPMU = sm.NumPCU*16*16/(20*20), sm.NumPMU*16*16/(20*20)

	cfg := DefaultConfig()
	cfg.Spec = &sm
	cold := mustCompile(t, w, p, cfg)

	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.Memo = memo
	mustCompile(t, w, p, base) // populate at the 20x20 default

	cfg.Memo = memo
	inc := mustCompile(t, w, p, cfg)
	assertHits(t, inc, map[string]bool{
		"consistency": true, "lower": true, "opt-early": true, "membank": true,
		"partition": true, "opt-late": true, "merge": true,
		"place": false,
	})
	assertIdentical(t, cold, inc, true)
}

// TestIncrementalPlaceSeedChange: a placement-only knob re-runs exactly the
// place stage.
func TestIncrementalPlaceSeedChange(t *testing.T) {
	w, err := workloads.ByName("ms")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Par: 4, Scale: 64}
	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Memo = memo
	mustCompile(t, w, p, cfg)

	cfg.Place.Seed = 99
	inc := mustCompile(t, w, p, cfg)
	assertHits(t, inc, map[string]bool{
		"consistency": true, "lower": true, "opt-early": true, "membank": true,
		"partition": true, "opt-late": true, "merge": true,
		"place": false,
	})

	coldCfg := DefaultConfig()
	coldCfg.Place.Seed = 99
	cold := mustCompile(t, w, p, coldCfg)
	assertIdentical(t, cold, inc, false)
}

// TestIncrementalOptFlagChange: flipping a late-optimization flag reuses the
// prefix through partition and recomputes from opt-late on.
func TestIncrementalOptFlagChange(t *testing.T) {
	w, err := workloads.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Par: 4, Scale: 64}
	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SkipPlace = true
	cfg.Memo = memo
	mustCompile(t, w, p, cfg)

	cfg.Opt.XbarElm = !cfg.Opt.XbarElm
	inc := mustCompile(t, w, p, cfg)
	assertHits(t, inc, map[string]bool{
		"consistency": true, "lower": true, "opt-early": true, "membank": true,
		"partition": true,
		"opt-late":  false, "merge": false,
	})

	coldCfg := DefaultConfig()
	coldCfg.SkipPlace = true
	coldCfg.Opt.XbarElm = !DefaultConfig().Opt.XbarElm
	cold := mustCompile(t, w, p, coldCfg)
	assertIdentical(t, cold, inc, true)
}

// TestIncrementalDiskRestartReuse: a second process (modeled as a second
// Store over the same directory) restores the whole pipeline from disk.
func TestIncrementalDiskRestartReuse(t *testing.T) {
	w, err := workloads.ByName("sort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Par: 4, Scale: 64}
	dir := t.TempDir()

	memo1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SkipPlace = true
	cfg.Memo = memo1
	first := mustCompile(t, w, p, cfg)

	memo2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = memo2
	second := mustCompile(t, w, p, cfg)
	for _, stage := range []string{"consistency", "lower", "opt-early", "membank", "partition", "opt-late", "merge"} {
		if !second.StageHits[stage] {
			t.Errorf("stage %s not restored from disk", stage)
		}
	}
	assertIdentical(t, first, second, false)
}

// TestIncrementalCorruptEntryFallsBack: a corrupt deepest snapshot must not
// poison the compile — the driver falls back to the next valid stage and
// still produces bit-identical output.
func TestIncrementalCorruptEntryFallsBack(t *testing.T) {
	w, err := workloads.ByName("gda")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Par: 4, Scale: 64}
	memo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SkipPlace = true
	cfg.Memo = memo
	first := mustCompile(t, w, p, cfg)

	for _, key := range memo.ListKeys("merge") {
		memo.Put("merge", key, []byte("corrupt"))
	}
	second := mustCompile(t, w, p, cfg)
	if second.StageHits["merge"] {
		t.Error("corrupt merge snapshot was treated as a restore")
	}
	if !second.StageHits["opt-late"] {
		t.Error("driver did not fall back to the opt-late snapshot")
	}
	assertIdentical(t, first, second, false)
}

// TestIncrementalMemoOffMatchesColdDriver: Memo == nil must take the exact
// pre-existing cold path — no StageHits, classic PhaseTimes.
func TestIncrementalMemoOffMatchesColdDriver(t *testing.T) {
	c, err := Compile(testProg(16), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.StageHits != nil {
		t.Error("cold compile populated StageHits")
	}
	if _, ok := c.PhaseTimes["restore"]; ok {
		t.Error("cold compile recorded a restore phase")
	}
}

// TestStageKeysCoverConfig holds stageKeys to every option a stage reads:
// changing any one field of Config's Consistency, Opt, Membank, Partition,
// Merge or Place options must move at least one stage key, or two configs
// that compile differently would share a stored stage. Only the fields in
// exempt stay out of the keys: Workers is read by nothing, and Cache is
// where results go, not what they are.
func TestStageKeysCoverConfig(t *testing.T) {
	exempt := map[string]bool{
		"Partition.Workers": true, "Partition.Cache": true,
		"Merge.Workers": true, "Merge.Cache": true,
	}
	base := DefaultConfig()
	baseKeys := stageKeys("prog", "prog-no-par", &base)
	for _, group := range []string{"Consistency", "Opt", "Membank", "Partition", "Merge", "Place"} {
		typ := reflect.ValueOf(base).FieldByName(group).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := group + "." + typ.Field(i).Name
			if exempt[name] {
				continue
			}
			cfg := DefaultConfig()
			f := reflect.ValueOf(&cfg).Elem().FieldByName(group).Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.25)
			default:
				t.Fatalf("%s: no perturbation for kind %s; hash it in stageKeys or exempt it here", name, f.Kind())
			}
			if reflect.DeepEqual(stageKeys("prog", "prog-no-par", &cfg), baseKeys) {
				t.Errorf("changing %s moves no stage key", name)
			}
		}
	}
}
