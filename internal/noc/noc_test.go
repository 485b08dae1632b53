package noc

import "testing"

func TestDistAndLatency(t *testing.T) {
	g := New(20, 20, 2, 16)
	a, b := Coord{0, 0}, Coord{3, 4}
	if d := g.Dist(a, b); d != 7 {
		t.Errorf("Dist = %d, want 7", d)
	}
	if l := g.Latency(a, b); l != 16 {
		t.Errorf("Latency = %d, want (7+1)*2 = 16", l)
	}
	if l := g.Latency(a, a); l != 2 {
		t.Errorf("self latency = %d, want one switch hop", l)
	}
}

func TestRouteXY(t *testing.T) {
	g := New(8, 8, 1, 16)
	path := g.RouteXY(Coord{1, 1}, Coord{3, 4})
	if len(path) != 6 { // 3 column moves + 2 row moves + origin
		t.Fatalf("path length = %d, want 6: %v", len(path), path)
	}
	if path[0] != (Coord{1, 1}) || path[len(path)-1] != (Coord{3, 4}) {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// XY: column first.
	if path[1] != (Coord{1, 2}) {
		t.Errorf("XY routing should move along columns first, got %v", path[1])
	}
}

func TestBroadcastLatencyIsWorstCase(t *testing.T) {
	g := New(8, 8, 2, 16)
	src := Coord{0, 0}
	dsts := []Coord{{0, 1}, {4, 4}, {1, 0}}
	if l := g.BroadcastLatency(src, dsts); l != g.Latency(src, Coord{4, 4}) {
		t.Errorf("broadcast latency = %d, want farthest-destination latency", l)
	}
}

func TestCongestionAccounting(t *testing.T) {
	g := New(4, 4, 1, 16)
	// Two streams sharing the link (0,0)->(0,1) at 16 lanes each: 2x over.
	g.AddTraffic(Coord{0, 0}, Coord{0, 3}, 16)
	g.AddTraffic(Coord{0, 0}, Coord{0, 2}, 16)
	if c := g.Congestion(); c != 2 {
		t.Errorf("congestion = %v, want 2", c)
	}
	g.ResetTraffic()
	if c := g.Congestion(); c != 0 {
		t.Errorf("congestion after reset = %v, want 0", c)
	}
}

// TestAddTrafficFollowsRouteXY pins AddTraffic's in-place walk to RouteXY:
// every pair of coordinates on a small grid loads exactly the links of the
// routed path, each by the stream's rate.
func TestAddTrafficFollowsRouteXY(t *testing.T) {
	g := New(4, 5, 1, 16)
	for ar := 0; ar < g.Rows; ar++ {
		for ac := 0; ac < g.Cols; ac++ {
			for br := 0; br < g.Rows; br++ {
				for bc := 0; bc < g.Cols; bc++ {
					a, b := Coord{ar, ac}, Coord{br, bc}
					g.ResetTraffic()
					g.AddTraffic(a, b, 3)
					want := map[link]float64{}
					path := g.RouteXY(a, b)
					for i := 0; i+1 < len(path); i++ {
						want[link{path[i], path[i+1]}] += 3
					}
					if len(g.load) != len(want) {
						t.Fatalf("%v->%v: %d links loaded, want %d", a, b, len(g.load), len(want))
					}
					for l, v := range want {
						if g.load[l] != v {
							t.Errorf("%v->%v: link %v->%v load %v, want %v", a, b, l.from, l.to, g.load[l], v)
						}
					}
				}
			}
		}
	}
}
