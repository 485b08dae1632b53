package sim_test

import (
	"strconv"
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// TestAutoMatchesExplicitEngines pins the default engine to the oracle: the
// report EngineAuto produces must be bit-identical to the dense engine's.
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

// TestParseEngine pins the one engine-name table: "", "auto", "cycle" and
// "event" all name the event engine, its canonical name round-trips through
// String, and anything else — the dense oracle, "analytic", which is not a
// cycle-level engine, and the retired "parallel" — is an error that names the
// offender and lists the names there are.
func TestParseEngine(t *testing.T) {
	for _, name := range []string{"", "auto", "cycle", "event", sim.EngineAuto.String()} {
		if got, err := sim.ParseEngine(name); err != nil || got != sim.EngineEvent {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, sim.EngineEvent)
		}
	}
	for _, name := range []string{"dense", "quantum", "analytic", "parallel", "Auto", "engine(7)"} {
		_, err := sim.ParseEngine(name)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) ||
			!strings.Contains(err.Error(), "auto, cycle or event") {
			t.Errorf("ParseEngine(%q) err = %v, want an error naming it and listing the engines", name, err)
		}
	}
}
