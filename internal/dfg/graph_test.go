package dfg

import (
	"reflect"
	"strings"
	"testing"

	"sara/internal/ir"
)

func lineGraph(n int) *Graph {
	g := NewGraph(ir.NewProgram("t"))
	var prev VUID = NoVU
	for i := 0; i < n; i++ {
		u := g.AddVU(VCUCompute, "u")
		if prev != NoVU {
			g.AddEdge(prev, u.ID, EData)
		}
		prev = u.ID
	}
	return g
}

func TestTopoSortLine(t *testing.T) {
	g := lineGraph(5)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if len(order) != 5 {
		t.Fatalf("order length = %d, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Errorf("line graph order not monotone: %v", order)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := lineGraph(3)
	g.AddEdge(2, 0, EData) // close the cycle, not LCD
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestTopoSortSkipsLCD(t *testing.T) {
	g := lineGraph(3)
	e := g.AddEdge(2, 0, EToken)
	e.LCD = true
	e.Init = 1
	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("LCD cycle should be legal: %v", err)
	}
}

// TestTopoSortVMUPorts checks that two independent streams through one VMU do
// not form a false cycle: reqW -> vmu -(ack)-> resp -(token)-> reqR -> vmu
// -(data)-> cons is acyclic because ack only depends on the write port.
func TestTopoSortVMUPorts(t *testing.T) {
	g := NewGraph(ir.NewProgram("t"))
	vmu := g.AddVU(VMU, "vmu")
	reqW := g.AddVU(VCURequest, "reqW")
	resp := g.AddVU(VCUResponse, "resp")
	reqR := g.AddVU(VCURequest, "reqR")
	cons := g.AddVU(VCUCompute, "cons")

	w := g.AddEdge(reqW.ID, vmu.ID, EData)
	w.Port = "W"
	ack := g.AddEdge(vmu.ID, resp.ID, EData)
	ack.Port = "W"
	g.AddEdge(resp.ID, reqR.ID, EToken)
	addr := g.AddEdge(reqR.ID, vmu.ID, EData)
	addr.Port = "R"
	data := g.AddEdge(vmu.ID, cons.ID, EData)
	data.Port = "R"

	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("per-port VMU streams must be acyclic: %v", err)
	}

	// Same shape but with a single shared port IS a cycle.
	for _, e := range g.LiveEdges() {
		e.Port = "X"
	}
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("collapsed ports should produce a cycle")
	}
}

// TestTopoSortRepeatable: several units are ready at once and a VMU's ports
// become ready at different depths, so an order seeded from map iteration
// differs from call to call — in where the VMU appears, which is what
// sim.Analytic's finish-time DP is sensitive to.
func TestTopoSortRepeatable(t *testing.T) {
	g := NewGraph(ir.NewProgram("t"))
	vmu := g.AddVU(VMU, "vmu")
	for _, port := range []string{"a", "b", "c", "d", "e", "f"} {
		req := g.AddVU(VCURequest, "req."+port)
		// Port k sits behind a chain of k units.
		for k := 0; k < int(port[0]-'a'); k++ {
			hop := g.AddVU(VCUCompute, "hop."+port)
			g.AddEdge(req.ID, hop.ID, EData)
			req = hop
		}
		g.AddEdge(req.ID, vmu.ID, EData).Port = port
		g.AddEdge(vmu.ID, g.AddVU(VCUCompute, "cons."+port).ID, EData).Port = port
	}
	first, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order, first) {
			t.Fatalf("call %d returned %v, call 0 returned %v", i, order, first)
		}
	}
}

func TestReachablePortAware(t *testing.T) {
	g := NewGraph(ir.NewProgram("t"))
	vmu := g.AddVU(VMU, "vmu")
	a := g.AddVU(VCUCompute, "a")
	b := g.AddVU(VCUCompute, "b")
	c := g.AddVU(VCUCompute, "c")
	e1 := g.AddEdge(a.ID, vmu.ID, EData)
	e1.Port = "p1"
	e2 := g.AddEdge(vmu.ID, b.ID, EData)
	e2.Port = "p1"
	e3 := g.AddEdge(vmu.ID, c.ID, EData)
	e3.Port = "p2"

	r := g.Reachable(a.ID)
	if !r[b.ID] {
		t.Error("b should be reachable from a via port p1")
	}
	if r[c.ID] {
		t.Error("c must NOT be reachable from a: different VMU port")
	}
}

func TestRemoveVU(t *testing.T) {
	g := lineGraph(3)
	g.RemoveVU(1)
	if got := len(g.LiveVUs()); got != 2 {
		t.Errorf("live VUs = %d, want 2", got)
	}
	if got := len(g.LiveEdges()); got != 0 {
		t.Errorf("live edges = %d, want 0", got)
	}
	if len(g.Out(0)) != 0 || len(g.In(2)) != 0 {
		t.Error("adjacency not cleaned after RemoveVU")
	}
}

func TestValidateNeedsInitOnLCDToken(t *testing.T) {
	g := lineGraph(2)
	e := g.AddEdge(1, 0, EToken)
	e.LCD = true // Init left 0
	if err := g.Validate(); err == nil {
		t.Fatal("expected error: LCD token edge without initial credit")
	}
}

// TestValidateRefusesZeroTrip refuses a counter-driven unit whose counter
// never iterates, and leaves a forwarder's counters alone.
func TestValidateRefusesZeroTrip(t *testing.T) {
	for _, kind := range []VUKind{VCUCompute, VAG, VCUResponse} {
		g := NewGraph(ir.NewProgram("t"))
		u := g.AddVU(kind, "z")
		u.Counters = []Counter{{Ctrl: ir.CtrlID(1), Trip: 4}, {Ctrl: ir.CtrlID(2), Trip: 0}}
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "trip 0") {
			t.Errorf("%s with a zero trip: %v, want a refusal", kind, err)
		}
	}
	g := NewGraph(ir.NewProgram("t"))
	g.AddVU(VMU, "m").Counters = []Counter{{Ctrl: ir.CtrlID(1), Trip: 0}}
	if err := g.Validate(); err != nil {
		t.Errorf("forwarder with a zero trip: %v", err)
	}
}

func TestStats(t *testing.T) {
	g := NewGraph(ir.NewProgram("t"))
	v := g.AddVU(VCUCompute, "v")
	v.Ops = 5
	m := g.AddVU(VMU, "m")
	ag := g.AddVU(VAG, "ag")
	g.AddEdge(v.ID, m.ID, EData).Port = "w"
	g.AddEdge(ag.ID, v.ID, EToken)
	s := g.Stats()
	if s.VCUs != 1 || s.VMUs != 1 || s.AGs != 1 {
		t.Errorf("stats units = %+v", s)
	}
	if s.TokenEdges != 1 || s.DataEdges != 1 {
		t.Errorf("stats edges = %+v", s)
	}
	if s.TotalOps != 5 {
		t.Errorf("stats ops = %d, want 5", s.TotalOps)
	}
}

func TestFiringsProduct(t *testing.T) {
	u := &VU{Counters: []Counter{{Trip: 4}, {Trip: 8}, {Trip: 2}}}
	if got := u.Firings(); got != 64 {
		t.Errorf("Firings = %d, want 64", got)
	}
}

func TestDOTExport(t *testing.T) {
	g := NewGraph(ir.NewProgram("t"))
	v := g.AddVU(VCUCompute, "calc")
	v.Ops = 3
	m := g.AddVU(VMU, "mem")
	e := g.AddEdge(v.ID, m.ID, EData)
	e.Port = "W1"
	tok := g.AddEdge(m.ID, v.ID, EToken)
	tok.LCD = true
	tok.Init = 2

	dot := g.DOT()
	for _, want := range []string{
		"digraph vudfg", "calc", "cylinder", // memory shape
		"style=dashed",     // token styling
		"credit=2",         // credit label
		"label=\"W1\"",     // port label
		"constraint=false", // LCD edges don't constrain layout
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
