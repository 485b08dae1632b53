package sim_test

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// designShape counts the inputs of the auto-selection heuristic.
func designShape(d *sim.Design) (units, tokens int) {
	units = len(d.G.LiveVUs())
	for _, e := range d.G.LiveEdges() {
		if e.Kind == dfg.EToken {
			tokens++
		}
	}
	return units, tokens
}

// TestChooseEngineHeuristic checks the documented rule — dense for small
// token-free graphs, event otherwise — against every registered workload,
// and requires the dense/non-dense split to be non-vacuous (so the heuristic
// actually discriminates).
func TestChooseEngineHeuristic(t *testing.T) {
	var sawDense, sawOther bool
	for _, w := range workloads.All() {
		prog := w.Build(workloads.Params{Par: 4, Scale: 64})
		cfg := core.DefaultConfig()
		cfg.SkipPlace = true
		c, err := core.Compile(prog, cfg)
		if err != nil {
			t.Fatalf("%s: Compile: %v", w.Name, err)
		}
		d := c.Design()
		units, tokens := designShape(d)
		got := sim.ChooseEngine(d)
		want := sim.EngineEvent
		if units <= 32 && tokens == 0 {
			want = sim.EngineDense
		}
		if got != want {
			t.Errorf("%s: ChooseEngine = %v with %d units / %d token streams, want %v",
				w.Name, got, units, tokens, want)
		}
		if got == sim.EngineDense {
			sawDense = true
		} else {
			sawOther = true
		}
	}
	if !sawDense || !sawOther {
		t.Errorf("heuristic is vacuous over the workload suite: dense=%v other=%v", sawDense, sawOther)
	}
}

// TestChooseEngineIgnoresHost requires auto selection to be a function of the
// design alone: the twelve workloads at par 4 / scale 64 and the four placed
// par-128 kernels designs resolve to the same engine at GOMAXPROCS 1 and 8, so
// two ring members on different hosts agree on every memo key.
func TestChooseEngineIgnoresHost(t *testing.T) {
	designs := map[string]*sim.Design{}
	for _, w := range workloads.All() {
		cfg := core.DefaultConfig()
		cfg.SkipPlace = true
		c, err := core.Compile(w.Build(workloads.Params{Par: 4, Scale: 64}), cfg)
		if err != nil {
			t.Fatalf("%s: Compile: %v", w.Name, err)
		}
		designs[w.Name+"/p4"] = c.Design()
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		designs[name+"/p128"] = compilePlaced(t, name, 128, 8)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, d := range designs {
		runtime.GOMAXPROCS(1)
		one := sim.ChooseEngine(d)
		runtime.GOMAXPROCS(8)
		if eight := sim.ChooseEngine(d); eight != one {
			t.Errorf("%s: ChooseEngine = %v at GOMAXPROCS 1, %v at 8", name, one, eight)
		}
	}
}

// TestAutoMatchesExplicitEngines pins auto selection to the oracle: whatever
// engine auto picks, the report must be bit-identical to both explicit
// engines (which are themselves equivalence-tested against each other).
func TestAutoMatchesExplicitEngines(t *testing.T) {
	w, err := workloads.ByName("bs")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workloads.Params{Par: 16, Scale: 32})
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	c, err := core.Compile(prog, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d := c.Design()
	auto, err := sim.CycleEngine(d, 0, sim.EngineAuto)
	if err != nil {
		t.Fatalf("auto engine: %v", err)
	}
	dense, err := sim.CycleEngine(d, 0, sim.EngineDense)
	if err != nil {
		t.Fatalf("dense engine: %v", err)
	}
	if auto.Cycles != dense.Cycles || auto.FiredTotal != dense.FiredTotal {
		t.Errorf("auto (Cycles %d, Fired %d) != dense (Cycles %d, Fired %d)",
			auto.Cycles, auto.FiredTotal, dense.Cycles, dense.FiredTotal)
	}
}

// TestParseEngine pins the one engine-name table: every canonical wire name
// round-trips through String, "" means auto, "event" aliases "cycle", and
// anything else — including "analytic", which is not a cycle-level engine,
// and the retired "parallel" — is an error that names the offender and lists
// the engines there are.
func TestParseEngine(t *testing.T) {
	cases := []struct {
		name string
		want sim.EngineKind
	}{
		{"", sim.EngineAuto},
		{"auto", sim.EngineAuto},
		{"cycle", sim.EngineEvent},
		{"event", sim.EngineEvent},
		{"dense", sim.EngineDense},
	}
	for _, tc := range cases {
		got, err := sim.ParseEngine(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, k := range []sim.EngineKind{sim.EngineEvent, sim.EngineDense, sim.EngineAuto} {
		if got, err := sim.ParseEngine(k.String()); err != nil || got != k {
			t.Errorf("ParseEngine(%v.String()) = %v, %v", k, got, err)
		}
	}
	for _, name := range []string{"quantum", "analytic", "parallel", "Auto", "engine(7)"} {
		_, err := sim.ParseEngine(name)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) ||
			!strings.Contains(err.Error(), "auto, cycle, event or dense") {
			t.Errorf("ParseEngine(%q) err = %v, want an error naming it and listing the engines", name, err)
		}
	}
}
