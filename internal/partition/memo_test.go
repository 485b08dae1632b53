package partition_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/store"
	"sara/internal/workloads"
)

// benchSolverDesigns are the six designs of bench's `solver` workload,
// compiled under solverConfig(60).
var benchSolverDesigns = []struct {
	name       string
	par, scale int
}{{"rf", 16, 16}, {"rf", 32, 16}, {"ms", 16, 16}, {"rf", 64, 32}, {"ms", 32, 16}, {"ms", 64, 16}}

// neverHit is a SolverCache that answers nothing and keeps nothing, so a
// compile given it solves every instance, repeats included.
type neverHit struct{}

func (neverHit) LookupResult(string) (*partition.Result, bool) { return nil, false }
func (neverHit) StoreResult(string, *partition.Result)         {}

// counting wraps a pass-local memo and counts its lookups, the lookups it
// missed (the instances the pass then solved) per content key, and the MIP
// nodes those solves explored: StoreResult sees each solve once, a memo hit
// never.
type counting struct {
	partition.SolverCache
	calls  int
	solved map[string]int
	nodes  int
}

func newCounting() *counting {
	return &counting{SolverCache: partition.PassCache(nil), solved: map[string]int{}}
}

func (c *counting) LookupResult(key string) (*partition.Result, bool) {
	c.calls++
	r, ok := c.SolverCache.LookupResult(key)
	if !ok {
		c.solved[key]++
	}
	return r, ok
}

func (c *counting) StoreResult(key string, r *partition.Result) {
	c.nodes += r.MIPNodes
	c.SolverCache.StoreResult(key, r)
}

// hits is the number of lookups the memo answered.
func (c *counting) hits() int { return c.calls - len(c.solved) }

func mustCompileSolver(t *testing.T, name string, p workloads.Params, cfg core.Config) *core.Compiled {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(w.Build(p), cfg)
	if err != nil {
		t.Fatalf("%s par %d: %v", name, p.Par, err)
	}
	return c
}

// pipelineBytes encodes the whole compiled pipeline state (graph with its
// live units, edges and adjacency order, every pass's statistics, the merge
// assignment) through the store codec: equal bytes, identical designs.
func pipelineBytes(c *core.Compiled) []byte { return store.EncodeSnapshot(c.Artifact().State) }

// requireSameCompile fails the test unless a and b are the same compiled
// design: resources, partition statistics, merge result (counts, MIP nodes,
// assignments) and the whole pipeline state, graph included.
func requireSameCompile(t *testing.T, aName, bName string, a, b *core.Compiled) {
	t.Helper()
	if a.Resources() != b.Resources() {
		t.Errorf("resources: %s %+v, %s %+v", aName, a.Resources(), bName, b.Resources())
	}
	if !reflect.DeepEqual(a.PartStats, b.PartStats) {
		t.Errorf("partition stats: %s %+v, %s %+v", aName, a.PartStats, bName, b.PartStats)
	}
	if ac, bc := scCounts(a.Merged.Counts), scCounts(b.Merged.Counts); ac != bc {
		t.Errorf("merge counts: %s %v, %s %v", aName, ac, bName, bc)
	}
	if a.Merged.MIPNodes != b.Merged.MIPNodes {
		t.Errorf("merge nodes: %s %d, %s %d", aName, a.Merged.MIPNodes, bName, b.Merged.MIPNodes)
	}
	if a.MIPNodes() != b.MIPNodes() {
		t.Errorf("total MIP nodes: %s %d, %s %d", aName, a.MIPNodes(), bName, b.MIPNodes())
	}
	if !reflect.DeepEqual(a.Merged.PUOf, b.Merged.PUOf) {
		t.Errorf("merge assignments (PUOf): %s and %s differ", aName, bName)
	}
	if !bytes.Equal(pipelineBytes(a), pipelineBytes(b)) {
		t.Errorf("pipeline state (graph, stats, merge): %s and %s differ", aName, bName)
	}
}

// resolveConfig is cfg with a cache that never hits in both passes: every
// instance is solved, repeats included.
func resolveConfig(cfg core.Config) core.Config {
	cfg.Partition.Cache = neverHit{}
	cfg.Merge.Cache = neverHit{}
	return cfg
}

// TestPassMemoMatchesResolve compiles each of bench's solver designs twice:
// with no cache, so partition and merge answer repeated instances from their
// pass-local memo, and with a cache that never hits, so every instance is
// solved. The designs must be identical, MIP node counts included — a memo
// hit reports the nodes its instance's first solve explored. The par-2
// designs get the same check in TestSolverWorkloadsGoldenAndResolve.
func TestPassMemoMatchesResolve(t *testing.T) {
	for _, d := range benchSolverDesigns {
		p := workloads.Params{Par: d.par, Scale: d.scale}
		t.Run(fmt.Sprintf("%s-p%d-s%d", d.name, d.par, d.scale), func(t *testing.T) {
			memo := mustCompileSolver(t, d.name, p, solverConfig(60))
			full := mustCompileSolver(t, d.name, p, resolveConfig(solverConfig(60)))
			requireSameCompile(t, "memo", "re-solve", memo, full)
		})
	}
}

// TestPassMemoSolvesEachInstanceOnce counts, on bench's solver designs, the
// instances partition and merge look up and the ones they solve: each
// content key is solved once per pass, and the two largest designs repeat
// most of their instances.
func TestPassMemoSolvesEachInstanceOnce(t *testing.T) {
	want := map[string][2]int{ // calls, solves; partition and merge together
		"rf-p64-s32": {15, 6},
		"ms-p64-s16": {8, 2},
	}
	for _, d := range benchSolverDesigns {
		name := fmt.Sprintf("%s-p%d-s%d", d.name, d.par, d.scale)
		cfg := solverConfig(60)
		part, merged := newCounting(), newCounting()
		cfg.Partition.Cache, cfg.Merge.Cache = part, merged
		mustCompileSolver(t, d.name, workloads.Params{Par: d.par, Scale: d.scale}, cfg)
		for pass, c := range map[string]*counting{"partition": part, "merge": merged} {
			for key, n := range c.solved {
				if n != 1 {
					t.Errorf("%s %s: instance %.12s solved %d times", name, pass, key, n)
				}
			}
		}
		calls, solves := part.calls+merged.calls, len(part.solved)+len(merged.solved)
		t.Logf("%s: %d instances, %d solved", name, calls, solves)
		if w, ok := want[name]; ok && (calls != w[0] || solves != w[1]) {
			t.Errorf("%s: %d instances, %d solved; want %d, %d", name, calls, solves, w[0], w[1])
		}
	}
}

// contentKeyInstance returns a fresh instance with every field set, so each
// can be perturbed alone.
func contentKeyInstance() partition.Instance {
	return partition.Instance{
		N: 3, Ops: []int{1, 2, 3},
		Edges: [][2]int{{0, 1}}, OrderEdges: [][2]int{{1, 2}},
		MaxOps: 4, MaxIn: 3, MaxOut: 3,
		ExtIn: []int{0, 1, 0}, ExtOut: []int{1, 0, 0},
		Conflicts: [][2]int{{0, 2}}, Alpha: 0.5,
	}
}

func contentKeyOptions() partition.SolverOptions {
	return partition.SolverOptions{Gap: 0.15, MaxNodes: 60, TimeLimit: time.Minute, MaxParts: 3, MaxN: 20}
}

// perturbations returns the ways to change a field of kind k; it fails the
// test for a kind it cannot change, so a new kind of field is noticed rather
// than skipped.
func perturbations(t *testing.T, name string, k reflect.Kind) []func(reflect.Value) {
	switch k {
	case reflect.Int, reflect.Int64:
		return []func(reflect.Value){func(v reflect.Value) { v.SetInt(v.Int() + 1) }}
	case reflect.Float64:
		return []func(reflect.Value){func(v reflect.Value) { v.SetFloat(v.Float() + 0.25) }}
	case reflect.Bool:
		return []func(reflect.Value){func(v reflect.Value) { v.SetBool(!v.Bool()) }}
	case reflect.Slice:
		return []func(reflect.Value){
			func(v reflect.Value) { // change the first element's last int
				e := v.Index(0)
				if e.Kind() == reflect.Array {
					e = e.Index(e.Len() - 1)
				}
				e.SetInt(e.Int() + 1)
			},
			func(v reflect.Value) { v.Set(reflect.Append(v, v.Index(0))) }, // one element more
		}
	}
	t.Fatalf("no perturbation for field %s of kind %s", name, k)
	return nil
}

// TestContentKeyCoversInputs holds Instance.ContentKey to every input the
// solver reads: changing any field of Instance, or any SolverOptions field
// but ColdLP, must change the key under AlgoSolver, and ColdLP must not. Cold compiles treat units with one key as repeats,
// so a field added without a key update would hand one unit another's
// partition; this test fails instead.
func TestContentKeyCoversInputs(t *testing.T) {
	base := contentKeyInstance()
	key := base.ContentKey(partition.AlgoSolver, contentKeyOptions())
	if base.ContentKey(partition.AlgoBestTraversal, contentKeyOptions()) == key {
		t.Error("changing the algorithm leaves the key unchanged")
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		f := reflect.TypeOf(base).Field(i)
		for j, change := range perturbations(t, f.Name, f.Type.Kind()) {
			in := contentKeyInstance()
			change(reflect.ValueOf(&in).Elem().Field(i))
			if in.ContentKey(partition.AlgoSolver, contentKeyOptions()) == key {
				t.Errorf("change %d to Instance.%s leaves the key unchanged", j, f.Name)
			}
		}
	}
	unread := map[string]bool{"ColdLP": true}
	for i := 0; i < reflect.TypeOf(partition.SolverOptions{}).NumField(); i++ {
		f := reflect.TypeOf(partition.SolverOptions{}).Field(i)
		o := contentKeyOptions()
		perturbations(t, f.Name, f.Type.Kind())[0](reflect.ValueOf(&o).Elem().Field(i))
		name := f.Name
		switch changed := base.ContentKey(partition.AlgoSolver, o) != key; {
		case unread[name] && changed:
			t.Errorf("SolverOptions.%s changes the key; a result cached under one setting answers the other", name)
		case !unread[name] && !changed:
			t.Errorf("SolverOptions.%s leaves the key unchanged", name)
		}
	}
}
