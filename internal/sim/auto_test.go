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
// token-free graphs, parallel for big token-heavy graphs when the runtime
// has cores to back the shards, event otherwise — against every registered
// workload, and requires the dense/non-dense split to be non-vacuous (so the
// heuristic actually discriminates).
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
		switch {
		case units <= 32 && tokens == 0:
			want = sim.EngineDense
		case units >= 64 && tokens > 0 && runtime.GOMAXPROCS(0) >= 4:
			want = sim.EngineParallel
		}
		if got != want {
			t.Errorf("%s: ChooseEngine = %v with %d units / %d token streams at GOMAXPROCS %d, want %v",
				w.Name, got, units, tokens, runtime.GOMAXPROCS(0), want)
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
// anything else — including "analytic", which is not a cycle-level engine —
// is an error that names the offender.
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
		{"parallel", sim.EngineParallel},
	}
	for _, tc := range cases {
		got, err := sim.ParseEngine(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, k := range []sim.EngineKind{sim.EngineEvent, sim.EngineDense, sim.EngineAuto, sim.EngineParallel} {
		if got, err := sim.ParseEngine(k.String()); err != nil || got != k {
			t.Errorf("ParseEngine(%v.String()) = %v, %v", k, got, err)
		}
	}
	for _, name := range []string{"quantum", "analytic", "Auto", "engine(7)"} {
		if _, err := sim.ParseEngine(name); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("ParseEngine(%q) err = %v, want an error naming it", name, err)
		}
	}
}
