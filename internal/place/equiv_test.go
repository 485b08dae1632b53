package place_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/merge"
	"sara/internal/noc"
	"sara/internal/place"
	"sara/internal/workloads"
)

// design is a placer input: a merged graph and the chip it targets.
type design struct {
	name string
	g    *dfg.Graph
	m    *merge.Result
	spec *arch.Spec
}

// compiled runs the flow up to merging for one registered workload.
func compiled(t testing.TB, name string, par, scale int) design {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	c, err := core.Compile(w.Build(workloads.Params{Par: par, Scale: scale}), cfg)
	if err != nil {
		t.Fatalf("compile %s par %d: %v", name, par, err)
	}
	return design{fmt.Sprintf("%s/par%d", name, par), c.Lowered.G, c.Merged, cfg.Spec}
}

// synthetic builds a placer input from PU types and directed streams between
// PU slots given as {src, dst, lanes}; every PU holds one virtual unit.
func synthetic(name string, spec *arch.Spec, types []arch.PUType, streams [][3]int) design {
	g := dfg.NewGraph(nil)
	m := &merge.Result{PUOf: map[dfg.VUID]int{}}
	for i, ty := range types {
		u := g.AddVU(dfg.VCUCompute, fmt.Sprintf("u%d", i))
		m.PUs = append(m.PUs, merge.PU{Type: ty, Members: []dfg.VUID{u.ID}})
		m.PUOf[u.ID] = i
	}
	for _, s := range streams {
		g.AddEdge(dfg.VUID(s[0]), dfg.VUID(s[1]), dfg.EData).Lanes = s[2]
	}
	return design{name, g, m, spec}
}

// tinyChip is a 2×2 interior grid: PCU positions (0,1) (1,2), PMU positions
// (0,2) (1,1), AG positions (0,0) (0,3).
func tinyChip() *arch.Spec {
	s := arch.SARA20x20()
	s.Rows, s.Cols = 2, 2
	s.NumPCU, s.NumPMU, s.NumAG = 2, 2, 2
	return s
}

// corners are the annealer paths the registered workloads never reach.
func corners() []design {
	const pcu, pmu, ag = arch.PCU, arch.PMU, arch.AG
	rng := rand.New(rand.NewSource(3))
	var full []arch.PUType
	var dense [][3]int
	for i := 0; i < 200; i++ {
		full = append(full, pcu)
	}
	for i := 0; i < 600; i++ {
		dense = append(dense, [3]int{rng.Intn(200), rng.Intn(200), 1 + rng.Intn(16)})
	}
	return []design{
		// No PMU and no AG: two of three group draws hit an empty group.
		synthetic("empty-groups", arch.SARA20x20(), []arch.PUType{pcu, pcu, pcu},
			[][3]int{{0, 1, 16}, {1, 2, 4}}),
		synthetic("one-pu-groups", arch.SARA20x20(), []arch.PUType{pcu, pmu, ag},
			[][3]int{{2, 0, 16}, {0, 1, 16}, {1, 2, 1}}),
		// Every PCU position is taken, so every PCU move is a swap; the
		// random streams include duplicates and self-loops.
		synthetic("full-group", arch.SARA20x20(), full, dense),
		synthetic("no-streams", arch.SARA20x20(), []arch.PUType{pcu, pcu, pmu, ag}, nil),
		synthetic("isolated-pu", arch.SARA20x20(), []arch.PUType{pcu, pcu, pcu, pmu},
			[][3]int{{0, 1, 16}, {1, 3, 8}}),
		// Two PUs per type on a chip with two positions per type: every move
		// swaps a pair joined by streams in both directions.
		synthetic("mutual-swap", tinyChip(), []arch.PUType{pcu, pcu, pmu, pmu, ag, ag},
			[][3]int{{0, 1, 16}, {1, 0, 3}, {2, 3, 5}, {3, 2, 5}, {4, 0, 16}, {1, 5, 16}, {0, 2, 7}}),
		synthetic("zero-lanes", arch.SARA20x20(), []arch.PUType{pcu, pcu, pmu},
			[][3]int{{0, 1, 0}, {1, 2, 16}}),
	}
}

// sameAsOracle places d with both placers and reports whether it fit.
func sameAsOracle(t *testing.T, d design, opts place.Options) bool {
	t.Helper()
	got, err := place.Place(d.g, d.m, d.spec, opts)
	want, wantErr := place.OraclePlace(d.g, d.m, d.spec, opts)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s %+v: Place err %v, oracle err %v", d.name, opts, err, wantErr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(got.Coord, want.Coord) {
		t.Errorf("%s %+v: Coord differs from the oracle", d.name, opts)
	}
	if got.WireCost != want.WireCost || got.MaxHop != want.MaxHop {
		t.Errorf("%s %+v: WireCost/MaxHop = %v/%d, oracle %v/%d",
			d.name, opts, got.WireCost, got.MaxHop, want.WireCost, want.MaxHop)
	}
	if got.Grid.Congestion() != want.Grid.Congestion() {
		t.Errorf("%s %+v: Congestion = %v, oracle %v", d.name, opts, got.Grid.Congestion(), want.Grid.Congestion())
	}
	if !reflect.DeepEqual(got.Grid.SnapshotTraffic(), want.Grid.SnapshotTraffic()) {
		t.Errorf("%s %+v: link loads differ from the oracle", d.name, opts)
	}
	return true
}

// TestPlaceMatchesOracle: the delta-evaluating annealer is bit-identical to
// the full-recompute reference on every registered workload and on the
// synthetic corner cases.
func TestPlaceMatchesOracle(t *testing.T) {
	seeds := []int64{1, 7, 42}
	iters := []int{0, 1, 500}
	var designs []design
	for _, name := range workloads.Names() {
		for _, par := range []int{16, 64, 128} {
			designs = append(designs, compiled(t, name, par, 8))
		}
	}
	designs = append(designs, corners()...)
	placed := 0
	for _, d := range designs {
		for _, seed := range seeds {
			for _, it := range iters {
				if sameAsOracle(t, d, place.Options{Seed: seed, Iters: it}) {
					placed++
				}
			}
		}
	}
	if min := len(designs) * len(seeds) * len(iters) * 3 / 4; placed < min {
		t.Errorf("only %d of %d runs fit the chip, want at least %d", placed, len(designs)*len(seeds)*len(iters), min)
	}
}

// TestPlaceInvariants: the running cost has not drifted from a from-scratch
// recompute, and the placement is a legal one-to-one assignment by type.
func TestPlaceInvariants(t *testing.T) {
	designs := append(corners(),
		compiled(t, "kmeans", 64, 8), compiled(t, "rf", 64, 8), compiled(t, "sort", 32, 8))
	for _, d := range designs {
		p, err := place.Place(d.g, d.m, d.spec, place.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(p.Coord) != len(d.m.PUs) {
			t.Errorf("%s: placed %d of %d PUs", d.name, len(p.Coord), len(d.m.PUs))
		}
		cost := 0.0
		for _, e := range d.g.LiveEdges() {
			cost += float64(e.Lanes * p.EdgeHops(d.m, e.Src, e.Dst))
		}
		if p.WireCost != cost {
			t.Errorf("%s: WireCost = %v, recomputed from Coord %v", d.name, p.WireCost, cost)
		}
		at := map[noc.Coord]int{}
		for id, c := range p.Coord {
			if prev, ok := at[c]; ok {
				t.Errorf("%s: PUs %d and %d share %s", d.name, prev, id, c)
			}
			at[c] = id
			if got := positionType(d.spec, c); got != d.m.PUs[id].Type {
				t.Errorf("%s: PU %d of type %v sits on a %v position %s", d.name, id, d.m.PUs[id].Type, got, c)
			}
		}
	}
}

// TestPlaceFitErrorNamesOnce: through core.Compile the does-not-fit error
// carries the stage name once.
func TestPlaceFitErrorNamesOnce(t *testing.T) {
	w, err := workloads.ByName("sort")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Compile(w.Build(workloads.Params{Par: 64, Scale: 8}), core.DefaultConfig())
	const prefix = "core: place: design needs "
	if err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("err = %v, want prefix %q", err, prefix)
	}
}

// positionType classifies a grid coordinate the way the chip lays units out:
// AGs on the boundary columns, PCUs and PMUs checkerboarded over the
// interior. It holds for chips with NumPCU == NumPMU == Rows·Cols/2, which
// all test chips here are.
func positionType(spec *arch.Spec, c noc.Coord) arch.PUType {
	switch {
	case c.C == 0 || c.C == spec.Cols+1:
		return arch.AG
	case (c.R+c.C-1)%2 == 0:
		return arch.PCU
	default:
		return arch.PMU
	}
}
