package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sara/internal/arch"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeRun(t *testing.T, body []byte) *RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, body)
	}
	return &rr
}

func TestRunInlineProgramEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: dotProgram()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	result := decodeResult(t, rr)
	if result.Cycles <= 0 {
		t.Fatalf("missing simulation result: %s", body)
	}
	// The default engine, auto, is the event engine, reported as "cycle".
	if result.Engine != "cycle" {
		t.Errorf("engine = %q, want cycle under the auto default", result.Engine)
	}
	if rr.CacheHit {
		t.Error("first request should be a cache miss")
	}
	if rr.Resources.Total <= 0 {
		t.Error("resources missing from response")
	}
	if len(rr.CacheKey) != 64 {
		t.Errorf("cache key %q is not a sha-256 hex digest", rr.CacheKey)
	}
}

// TestRunSurfacesCompileBreakdown checks /v1/run reports the per-stage
// compile-time split and the solver node count (zero under traversal
// partitioning) alongside the simulation result.
func TestRunSurfacesCompileBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if len(rr.PhaseMS) == 0 {
		t.Error("phase_ms missing from /v1/run response")
	}
	for _, phase := range []string{"partition", "merge"} {
		if _, ok := rr.PhaseMS[phase]; !ok {
			t.Errorf("phase_ms missing %q: %v", phase, rr.PhaseMS)
		}
	}
	if rr.MIPNodesExplored != 0 {
		t.Errorf("mip_nodes_explored = %d under traversal partitioning, want 0", rr.MIPNodesExplored)
	}
}

func TestRunWorkloadAnalytic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if r := decodeResult(t, rr); r.Cycles <= 0 || r.Engine != "analytic" {
		t.Fatalf("bad analytic result: %s", body)
	}
}

func TestCompileEndpointSkipsSimulation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/compile", RunRequest{Program: dotProgram(), Arch: archPreset("v1")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Result != nil {
		t.Error("/v1/compile should not simulate")
	}
	if len(rr.PhaseMS) == 0 {
		t.Error("phase times missing")
	}
	if !strings.Contains(rr.Arch, "v1") {
		t.Errorf("arch = %q, want the v1 preset", rr.Arch)
	}
}

func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 8, QueueDepth: 64})
	const n = 8
	var wg sync.WaitGroup
	hits := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: dotProgram(), Engine: "analytic"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d: %s", resp.StatusCode, body)
				return
			}
			hits <- decodeRun(t, body).CacheHit
		}()
	}
	wg.Wait()
	close(hits)
	if got := s.Metrics().Counter("sarad_compiles_total"); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d compiles, want exactly 1", n, got)
	}
	misses := 0
	for h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d responses claim a cache miss, want exactly 1", misses)
	}
	if h, m := s.Metrics().Counter("sarad_cache_hits_total"), s.Metrics().Counter("sarad_cache_misses_total"); h != n-1 || m != 1 {
		t.Errorf("cache counters: %d hits / %d misses, want %d / 1", h, m, n-1)
	}
}

func TestSaturatedQueueReturns429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.jobGate = func() { <-gate }

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one occupies the worker, one the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d: %s", resp.StatusCode, body)
			}
		}()
	}
	waitFor(t, "worker busy and queue full", func() bool {
		return s.pool.Active() == 1 && s.pool.QueueDepth() == 1
	})

	resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.Metrics().Counter("sarad_rejected_total"); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	close(gate) // release the two accepted jobs
	wg.Wait()
}

func TestRequestTimeoutReturns504(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	s.jobGate = func() { <-release }
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: dotProgram(), TimeoutMS: 20})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	if got := s.Metrics().Counter("sarad_timeouts_total"); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  any
	}{
		{"neither workload nor program", RunRequest{}},
		{"both workload and program", RunRequest{Workload: "bs", Program: dotProgram()}},
		{"unknown workload", RunRequest{Workload: "nope"}},
		{"unknown engine", RunRequest{Workload: "bs", Engine: "quantum"}},
		{"retired engine", RunRequest{Workload: "bs", Engine: "parallel"}},
		{"retired dense", RunRequest{Workload: "bs", Engine: "dense"}},
		{"unknown arch preset", RunRequest{Workload: "bs", Arch: archPreset("40x40")}},
		// Past the arch ceilings: the first once panicked the process in the
		// DRAM model, the second spun in the placer long after its 504.
		{"huge dram_channels", RunRequest{Workload: "bs", Par: 2, Scale: 64, Arch: &arch.SpecJSON{DRAMChannels: 1 << 44}}},
		{"huge grid", RunRequest{Workload: "bs", Arch: &arch.SpecJSON{Rows: 1 << 50, Cols: 4}}},
		// Inline fifo depths size stream buffers outside the arch ceilings.
		{"zero fifo depth", RunRequest{Program: fifoProgram(0)}},
		{"negative fifo depth", RunRequest{Program: fifoProgram(-4)}},
		{"huge fifo depth", RunRequest{Program: fifoProgram(arch.MaxStreamDepth + 1)}},
		{"negative solver gap", RunRequest{Workload: "bs", Options: &CompileOptionsJSON{Solver: true, SolverGap: -0.15}}},
		// A field the wire no longer has falls to the unknown-field rule.
		{"retired solver_workers", json.RawMessage(`{"workload":"bs","options":{"solver":true,"solver_workers":4}}`)},
		{"retired tune slack", json.RawMessage(`{"workload":"ms","tune":{"pars":[8],"slack":0.5}}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Now()
			resp, body := postRun(t, ts, "/v1/run", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
			}
			if d := time.Since(t0); d > time.Second {
				t.Errorf("refusing took %v", d)
			}
			var e errorJSON
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body not JSON: %s", body)
			}
			if n := s.Metrics().Counter("sarad_compiles_total"); n != 0 {
				t.Errorf("a refused request compiled: sarad_compiles_total = %d", n)
			}
		})
	}

	t.Run("invalid program", func(t *testing.T) {
		bad := dotProgram()
		bad.Body[0].Body[0].Ops[0].Mem = "nope"
		resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: bad})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"wrkload":"bs"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("GET not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/run")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("still serving", func(t *testing.T) {
		resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 2, Scale: 64, Engine: "analytic"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d after the refusals: %s", resp.StatusCode, body)
		}
	})
}

// TestWriteJSONEncodesBeforeStatus: a response is encoded before its status
// is written, so one that does not encode — here an invalid raw result —
// answers 500 with a JSON error body, not a 200 with an empty one; one that
// does is compact JSON.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, &RunResponse{Result: json.RawMessage(`{"cycles":`)})
	if w.Code != http.StatusInternalServerError {
		t.Errorf("invalid raw result answered %d, want 500", w.Code)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("error body %q (err %v), want a JSON error", w.Body, err)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}

	w = httptest.NewRecorder()
	ok := &RunResponse{Program: "p", Result: json.RawMessage(`{"engine":"cycle","cycles":7}`)}
	writeJSON(w, http.StatusOK, ok)
	want, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || w.Body.String() != string(want)+"\n" {
		t.Errorf("answered %d %q, want 200 %s", w.Code, w.Body, want)
	}
}

// TestRunRefusesDeepOutOfBoundsNest: an inline program 40 loops deep (3^40
// iterations) whose innermost write leaves its SRAM gets its 422, naming the
// extreme address, well inside a second. The bounds gate's cost must not grow
// with the iteration space or with 2^depth, or such a request holds a worker
// for days.
func TestRunRefusesDeepOutOfBoundsNest(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	pat := &PatternJSON{Kind: "affine"}
	node := NodeJSON{Kind: "block", Name: "w", Ops: []OpJSON{{Op: "write", Mem: "m", Pattern: pat}}}
	for d := 39; d >= 0; d-- {
		name := fmt.Sprintf("l%d", d)
		pat.Terms = append(pat.Terms, TermJSON{Loop: name, Coeff: 1})
		node = NodeJSON{Kind: "loop", Name: name, Max: 3, Body: []NodeJSON{node}}
	}
	prog := &ProgramJSON{Name: "deep", Mems: []MemJSON{{Kind: "sram", Name: "m", Dims: []int{64}}}, Body: []NodeJSON{node}}
	start := time.Now()
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: prog})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	// 40 loops × coefficient 1 × last iterator 2.
	if want := "access W0.m reaches 80 outside m[0,64)"; !strings.Contains(string(body), want) {
		t.Errorf("body %s does not name the extreme address %q", body, want)
	}
	if elapsed > time.Second {
		t.Errorf("422 after %v, want under a second", elapsed)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []workloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(list) < 10 {
		t.Fatalf("only %d workloads listed", len(list))
	}
	found := false
	for _, w := range list {
		if w.Name == "bs" {
			found = true
		}
	}
	if !found {
		t.Error("bs missing from workload list")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	// One miss, one hit.
	for i := 0; i < 2; i++ {
		resp, body := postRun(t, ts, "/v1/run", RunRequest{Program: dotProgram(), Engine: "analytic"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`sarad_requests_total{endpoint="/v1/run",status="200"} 2`,
		"sarad_cache_hits_total 1",
		"sarad_cache_misses_total 1",
		"sarad_compiles_total 1",
		"sarad_cycles_simulated_total",
		"sarad_queue_depth 0",
		"sarad_request_seconds_bucket{le=\"+Inf\"} 2",
		"sarad_compile_seconds_count 1",
		"sarad_sim_seconds_count 2",
		"sarad_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	// A node without peers is a ring of one: it renders no cluster gauge, no
	// routing or proxy traffic and no simulation-record funnel.
	if got := clusterSeries(text); len(got) > 0 {
		t.Errorf("peerless node renders %q", got)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	// Equivalent requests (defaults spelled out vs. omitted) share a key...
	a := &RunRequest{Workload: "bs"}
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	b := &RunRequest{Workload: "bs", Par: 16, Scale: 16, Engine: "analytic", TimeoutMS: 5000}
	ka, err := cacheKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := cacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("engine/timeout and defaulted par/scale should not change the compile identity")
	}
	// ...while anything compile-relevant changes it.
	c := &RunRequest{Workload: "bs", Par: 32, Scale: 16}
	kc, _ := cacheKey(c)
	if kc == ka {
		t.Error("par change must change the cache key")
	}
	d := &RunRequest{Workload: "bs", Par: 16, Scale: 16, Options: &CompileOptionsJSON{NoOpt: true}}
	kd, _ := cacheKey(d)
	if kd == ka {
		t.Error("option change must change the cache key")
	}
}

// TestEquivalentOptionsShareOneKey: options that compile the same design
// share one content address, that of the form without the field, so the
// second request of each pair is a cache hit, not a second compile.
func TestEquivalentOptionsShareOneKey(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	all := &OptTogglesJSON{MSR: true, RtElm: true, Retime: true, RetimeMem: true, XbarElm: true}
	pairs := []struct {
		name      string
		with, not *CompileOptionsJSON
	}{
		{"solver_gap without solver", &CompileOptionsJSON{SolverGap: 0.3}, nil},
		{"default solver_gap", &CompileOptionsJSON{Solver: true, SolverGap: 0.15}, &CompileOptionsJSON{Solver: true}},
		{"no_opt beside opt", &CompileOptionsJSON{NoOpt: true, Opt: all}, &CompileOptionsJSON{Opt: all}},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			var keys [2]string
			before := s.Metrics().Counter("sarad_compiles_total")
			for i, o := range []*CompileOptionsJSON{pc.not, pc.with} {
				req := RunRequest{Program: dotProgram(), Options: o}
				k, err := KeyFor(&req)
				if err != nil {
					t.Fatal(err)
				}
				keys[i] = k
				resp, body := postRun(t, ts, "/v1/compile", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d: %s", resp.StatusCode, body)
				}
				if got := decodeRun(t, body).CacheKey; got != k {
					t.Errorf("served key %s, KeyFor %s", got, k)
				}
			}
			if keys[0] != keys[1] {
				t.Errorf("keys differ: %s without the field, %s with it", keys[0], keys[1])
			}
			if n := s.Metrics().Counter("sarad_compiles_total") - before; n != 1 {
				t.Errorf("the pair compiled %d times, want 1", n)
			}
		})
	}
	// KeyFor works on a copy: the caller's options keep the field.
	o := &CompileOptionsJSON{NoOpt: true, Opt: all}
	if _, err := KeyFor(&RunRequest{Program: dotProgram(), Options: o}); err != nil || !o.NoOpt {
		t.Errorf("KeyFor rewrote the caller's options (err %v)", err)
	}
}

func TestGracefulCloseDrainsInFlight(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	s.jobGate = func() { close(started); <-release }

	go func() {
		body, _ := json.Marshal(RunRequest{Program: dotProgram(), Engine: "analytic"})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	select {
	case err := <-closed:
		t.Fatalf("Close returned before the in-flight job finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Metrics().Counter("sarad_compiles_total"); got != 1 {
		t.Errorf("in-flight job did not complete during drain (compiles = %d)", got)
	}
}

func archPreset(name string) *arch.SpecJSON {
	return &arch.SpecJSON{Preset: name}
}

func ExampleMetrics_Render() {
	m := NewMetrics()
	m.Add("sarad_compiles_total", 1)
	m.ObserveRequest("/v1/run", 200, 0.25)
	var buf bytes.Buffer
	m.Render(&buf)
	fmt.Print(strings.Join(strings.Split(buf.String(), "\n")[:3], "\n"))
	// Output:
	// sarad_compiles_total 1
	// sarad_requests_total{endpoint="/v1/run",status="200"} 1
	// sarad_request_seconds_bucket{le="0.001"} 0
}
