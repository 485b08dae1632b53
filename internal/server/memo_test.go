package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sara/internal/core"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/workloads"
)

// mustRun posts req to /v1/run and decodes the 200 response.
func mustRun(t *testing.T, ts *httptest.Server, req RunRequest) *RunResponse {
	t.Helper()
	resp, body := postRun(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run %+v: %d: %s", req, resp.StatusCode, body)
	}
	return decodeRun(t, body)
}

// memoCounters reads the result memo's hit and miss counters.
func memoCounters(s *Server) (hits, misses int64) {
	return s.Metrics().Counter("sarad_sim_memo_hits_total"), s.Metrics().Counter("sarad_sim_memo_misses_total")
}

// stableJSON encodes a response with everything that legitimately differs
// between the request that simulated and the one answered from the memo
// zeroed: which tier hit, this request's timings, and the store's counters.
func stableJSON(t *testing.T, rr *RunResponse) string {
	t.Helper()
	cp := *rr
	cp.CacheHit, cp.SimCached = false, false
	cp.CompileMS, cp.SimMS, cp.SimCyclesPerSec = 0, 0, 0
	cp.Store = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// directResultJSON compiles and simulates req without a server, the way
// sarasim does, and returns the wire encoding of its Result.
func directResultJSON(t *testing.T, req RunRequest, kind sim.EngineKind) string {
	t.Helper()
	spec, err := specFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := buildProgram(&req)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(prog, req.Options.config(spec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.CycleEngine(c.Design(), simMaxCycles, kind)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.JSON(spec))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemoEqualsFresh: for every registered workload on every engine name the
// bench and the CLIs use, the response answered from the memo is the response
// that simulated, byte for byte, and both carry the Result a direct
// sim.CycleEngine run produces.
func TestMemoEqualsFresh(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, engine := range []string{"auto", "cycle", "dense"} {
			name, engine := name, engine
			t.Run(name+"/"+engine, func(t *testing.T) {
				t.Parallel()
				s, ts := newTestServer(t, Options{Workers: 2})
				req := RunRequest{Workload: name, Par: 16, Scale: 16, Engine: engine}
				first := mustRun(t, ts, req)
				second := mustRun(t, ts, req)
				if first.CacheHit || first.SimCached {
					t.Errorf("cold request: cache_hit %v, sim_cached %v", first.CacheHit, first.SimCached)
				}
				if !second.CacheHit || !second.SimCached {
					t.Errorf("repeat: cache_hit %v, sim_cached %v, want both", second.CacheHit, second.SimCached)
				}
				if second.SimCyclesPerSec != 0 {
					t.Errorf("memo hit reports sim_cycles_per_sec %g; no engine ran", second.SimCyclesPerSec)
				}
				if a, b := stableJSON(t, first), stableJSON(t, second); a != b {
					t.Errorf("memo hit differs from the run that simulated\nfresh: %s\n memo: %s", a, b)
				}
				kind, err := sim.ParseEngine(engine)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(second.Result)
				if err != nil {
					t.Fatal(err)
				}
				if want := directResultJSON(t, req, kind); string(got) != want {
					t.Errorf("served result differs from a direct run\n got: %s\nwant: %s", got, want)
				}
				if hits, misses := memoCounters(s); hits != 1 || misses != 1 {
					t.Errorf("memo counters %d hits / %d misses, want 1 / 1", hits, misses)
				}
			})
		}
	}
}

// TestMemoAutoSharesResolvedEngineRecord: auto is resolved before the key is
// formed, so it and the explicit name of the engine it picked are one record.
func TestMemoAutoSharesResolvedEngineRecord(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	for _, name := range []string{"bs", "rf"} { // auto picks dense for bs, event for rf
		auto := mustRun(t, ts, RunRequest{Workload: name, Engine: "auto"})
		explicit := mustRun(t, ts, RunRequest{Workload: name, Engine: auto.Result.Engine})
		if auto.SimCached || !explicit.SimCached {
			t.Errorf("%s: auto sim_cached %v, engine %q sim_cached %v; want false, true",
				name, auto.SimCached, auto.Result.Engine, explicit.SimCached)
		}
		if !reflect.DeepEqual(auto.Result, explicit.Result) {
			t.Errorf("%s: results differ: %+v vs %+v", name, auto.Result, explicit.Result)
		}
	}
	if hits, misses := memoCounters(s); hits != 2 || misses != 2 {
		t.Errorf("memo counters %d hits / %d misses, want 2 / 2", hits, misses)
	}
}

// TestMemoBypasses: profiled runs (the recording is not stored), the analytic
// model (microseconds) and solver compiles (the key does not determine the
// design) never touch the memo.
func TestMemoBypasses(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	for _, req := range []RunRequest{
		{Workload: "bs", Par: 4, Scale: 64, Profile: true},
		{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"},
		{Workload: "pr", Par: 4, Scale: 16, Options: &CompileOptionsJSON{Solver: true}},
	} {
		for i := 0; i < 2; i++ {
			if rr := mustRun(t, ts, req); rr.SimCached {
				t.Errorf("%+v: sim_cached on a bypass request", req)
			}
		}
	}
	if hits, misses := memoCounters(s); hits != 0 || misses != 0 {
		t.Errorf("memo counters %d hits / %d misses, want 0 / 0", hits, misses)
	}
	if st := s.store.Stats().Stages[store.SimStage]; st != (store.StageStats{}) {
		t.Errorf("bypass requests touched the sim tier: %+v", st)
	}
}

// TestMemoCorruptRecordFallsThrough: a truncated and a garbage record each
// cost one fresh simulation, answer correctly, and are rewritten in place.
func TestMemoCorruptRecordFallsThrough(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Workload: "gda", Par: 4, Scale: 16}
	_, ts := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	want := mustRun(t, ts, req)
	files, err := filepath.Glob(filepath.Join(dir, store.SimStage, "*.bin"))
	if err != nil || len(files) != 1 {
		t.Fatalf("one simulation left %d records: %v", len(files), files)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for label, bad := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbage":   []byte("\x00not a result\xff"),
	} {
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		// A new process: the previous server's memory tier still holds the
		// good bytes.
		s, ts := newTestServer(t, Options{Workers: 2, StoreDir: dir})
		got := mustRun(t, ts, req)
		if got.SimCached {
			t.Errorf("%s record was served as a memo hit", label)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("%s record: result %+v, want %+v", label, got.Result, want.Result)
		}
		if _, misses := memoCounters(s); misses != 1 {
			t.Errorf("%s record: %d memo misses, want 1", label, misses)
		}
		if now, err := os.ReadFile(files[0]); err != nil || string(now) != string(good) {
			t.Errorf("%s record was not rewritten (err %v, %d bytes, want %d)", label, err, len(now), len(good))
		}
		if again := mustRun(t, ts, req); !again.SimCached {
			t.Errorf("%s record: the rewritten record is not served", label)
		}
	}
}

// TestMemoOutlivesLRUEviction: with room for one design, two alternating
// designs evict each other on every request; from the second round on each
// comes back from the store's final tier and its result from the memo.
func TestMemoOutlivesLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: 1})
	reqs := []RunRequest{{Workload: "bs", Par: 4, Scale: 16}, {Workload: "gda", Par: 4, Scale: 16}}
	var simulated int64
	for round := 0; round < 3; round++ {
		for _, req := range reqs {
			rr := mustRun(t, ts, req)
			if round > 0 && (!rr.StoreHit || !rr.SimCached) {
				t.Errorf("round %d %s: store_hit %v, sim_cached %v, want both", round, req.Workload, rr.StoreHit, rr.SimCached)
			}
		}
		if round == 0 {
			simulated = s.Metrics().Counter("sarad_cycles_simulated_total")
		}
	}
	if _, misses := memoCounters(s); misses != 2 {
		t.Errorf("%d simulations over three rounds of two designs, want 2", misses)
	}
	if got := s.Metrics().Counter("sarad_cycles_simulated_total"); got != simulated || got == 0 {
		t.Errorf("sarad_cycles_simulated_total %d after round 1, %d at the end; hits must not count", simulated, got)
	}
}

// TestMemoSurvivesRestart: a server reopened on the same store directory
// answers its first request without compiling or simulating.
func TestMemoSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Workload: "ms", Par: 4, Scale: 16}
	_, ts1 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	first := mustRun(t, ts1, req)

	s2, ts2 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	second := mustRun(t, ts2, req)
	if !second.CacheHit || !second.SimCached {
		t.Errorf("after restart: cache_hit %v, sim_cached %v, want both", second.CacheHit, second.SimCached)
	}
	if hits, misses := memoCounters(s2); hits != 1 || misses != 0 {
		t.Errorf("restarted server: %d memo hits / %d misses, want 1 / 0", hits, misses)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Errorf("restart changed the result: %+v vs %+v", first.Result, second.Result)
	}
}

// TestMemoConcurrentColdRequests: identical cold requests compile once,
// share one simulation (the others wait for its run or read its record) and
// all answer identically.
func TestMemoConcurrentColdRequests(t *testing.T) {
	const n, workers = 8, 4
	s, ts := newTestServer(t, Options{Workers: workers, QueueDepth: 64})
	req := RunRequest{Workload: "kmeans", Par: 16, Scale: 16}
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts, "/v1/run", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			b, err := json.Marshal(decodeRun(t, body).Result)
			if err != nil {
				t.Error(err)
			}
			results[i] = string(b)
		}()
	}
	wg.Wait()
	if got := s.Metrics().Counter("sarad_compiles_total"); got != 1 {
		t.Errorf("%d compiles, want 1", got)
	}
	if hits, misses := memoCounters(s); misses != 1 || hits+misses != n {
		t.Errorf("%d memo hits / %d misses over %d requests on %d workers, want %d / 1", hits, misses, n, workers, n-1)
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("request %d answered differently:\n%s\n%s", i, r, results[0])
		}
	}
}

// TestTimedOutJobFillsMemo: a request that gives up with 504 was told its job
// keeps running. The job must finish both halves — compile into the cache,
// result into the memo — so the retry does no work at all.
func TestTimedOutJobFillsMemo(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := make(chan struct{})
	s.jobGate = func() { <-release }
	req := RunRequest{Workload: "bs", Par: 4, Scale: 16, TimeoutMS: 1}
	resp, body := postRun(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	close(release)
	req.TimeoutMS = 0
	retry := mustRun(t, ts, req) // queues behind the timed-out job on the one worker
	if !retry.CacheHit || !retry.SimCached {
		t.Errorf("retry: cache_hit %v, sim_cached %v, want both", retry.CacheHit, retry.SimCached)
	}
	if hits, misses := memoCounters(s); hits != 1 || misses != 1 {
		t.Errorf("memo counters %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// TestResultRecordRoundTrip: the memo's record encoding (encoding/json of
// the plain-data Result) is an identity, down to nil versus empty containers.
func TestResultRecordRoundTrip(t *testing.T) {
	for label, want := range map[string]*sim.Result{
		"nil containers":   {Cycles: 7, Engine: "dense"},
		"empty containers": {Cycles: 7, Engine: "event", Stalls: map[string]int64{}, TopUnits: []sim.UnitStat{}},
		"fully populated": {
			Cycles: 1 << 40, Engine: "cycle", BottleneckVU: "u[3]", BottleneckII: 1.0 / 3, ComputeBusy: 0.1,
			FiredTotal: 99, Stalls: map[string]int64{"token-wait": 5, "input-starved": 1},
			TopUnits: []sim.UnitStat{{Name: "a", Fired: 3, Busy: 2.0 / 7, Stalls: 6, StallIn: 1, StallOut: 2, StallToken: 3}},
		},
	} {
		want.DRAM.TotalBytes, want.DRAM.PeakBytesPerCycle = 1<<33, 102.4
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := &sim.Result{}
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", label, got, want)
		}
	}
}
