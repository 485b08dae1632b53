package server

import (
	"bytes"
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

// TestMemoEqualsFresh: for every registered workload, asked for by both
// engine names the bench and the CLIs spell, the response answered from the
// memo is the response that simulated, byte for byte, and both carry the
// Result a direct sim.CycleEngine run produces.
func TestMemoEqualsFresh(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, engine := range []string{"auto", "cycle"} {
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
				if got, want := resultJSON(t, second), directResultJSON(t, req, kind); got != want {
					t.Errorf("served result differs from a direct run\n got: %s\nwant: %s", got, want)
				}
				if hits, misses := memoCounters(s); hits != 1 || misses != 1 {
					t.Errorf("memo counters %d hits / %d misses, want 1 / 1", hits, misses)
				}
			})
		}
	}
}

// TestMemoAutoSharesResolvedEngineRecord: auto and every other engine name a
// request can spell resolve to the event engine, so the memo key leaves the
// engine out — one design is one record, whichever name asks for it first.
func TestMemoAutoSharesResolvedEngineRecord(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	var want string
	for i, engine := range []string{"", "auto", "cycle", "event"} {
		rr := mustRun(t, ts, RunRequest{Workload: "bs", Par: 8, Scale: 16, Engine: engine})
		if rr.SimCached != (i > 0) {
			t.Errorf("engine %q: sim_cached %v, want %v", engine, rr.SimCached, i > 0)
		}
		if rr.Result.Engine != "cycle" {
			t.Errorf("engine %q: result.engine %q, want cycle", engine, rr.Result.Engine)
		}
		got := resultJSON(t, rr)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("engine %q: result differs from the first\n got: %s\nwant: %s", engine, got, want)
		}
	}
	if hits, misses := memoCounters(s); hits != 3 || misses != 1 {
		t.Errorf("memo counters %d hits / %d misses, want 3 / 1", hits, misses)
	}
	if keys := s.store.ListKeys(store.SimStage); len(keys) != 1 {
		t.Errorf("sim tier holds %d records, want 1: %v", len(keys), keys)
	}
}

// TestMemoProfiledRunMatchesRecord: a profiled request bypasses the memo but
// runs the same engine, so it answers the Result the memo holds for its
// design, and the record decodes to it.
func TestMemoProfiledRunMatchesRecord(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	req := RunRequest{Workload: "bs", Par: 8, Scale: 16}
	memo := mustRun(t, ts, req)
	req.Profile = true
	profiled := mustRun(t, ts, req)
	if profiled.SimCached || profiled.Profile == nil {
		t.Errorf("profiled request: sim_cached %v, profile present %v; want false, true", profiled.SimCached, profiled.Profile != nil)
	}
	if got, want := resultJSON(t, profiled), resultJSON(t, memo); got != want {
		t.Errorf("profiled result differs from the memoised one\n got: %s\nwant: %s", got, want)
	}
	keys := s.store.ListKeys(store.SimStage)
	if len(keys) != 1 {
		t.Fatalf("sim tier holds %d records, want 1", len(keys))
	}
	data, _ := s.store.Get(store.SimStage, keys[0])
	rec, err := decodeSimRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := specFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(rec.JSON(spec)); err != nil || string(b) != resultJSON(t, profiled) {
		t.Errorf("memo record %s (err %v), profiled result %s", b, err, resultJSON(t, profiled))
	}
	if hits, misses := memoCounters(s); hits != 0 || misses != 1 {
		t.Errorf("memo counters %d hits / %d misses, want 0 / 1", hits, misses)
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
// the plain-data Result, engine name left out) is an identity down to nil
// versus empty containers, and decoding stamps the served engine whatever
// engine produced the Result.
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
		data, err := encodeSimRecord(want)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if bytes.Contains(data, []byte(`"Engine"`)) {
			t.Errorf("%s: record %s names the engine", label, data)
		}
		got, err := decodeSimRecord(data)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want.Engine = "cycle"
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", label, got, want)
		}
	}
}

// FuzzSimRecord: decodeSimRecord never panics on arbitrary bytes, and a
// record that decodes re-encodes to bytes that decode to the same Result.
// The seed corpus in testdata/fuzz/FuzzSimRecord (a real record, a truncated
// one, garbage, and a record from before sim.Version 3 that still names its
// engine) runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzSimRecord -fuzztime 30s ./internal/server/
func FuzzSimRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeSimRecord(data)
		if err != nil {
			return
		}
		again, err := encodeSimRecord(r)
		if err != nil {
			t.Fatalf("a decoded record does not re-encode: %v", err)
		}
		back, err := decodeSimRecord(again)
		if err != nil {
			t.Fatalf("a re-encoded record does not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, r) {
			t.Errorf("re-encoding changed the Result\n got %+v\nwant %+v", back, r)
		}
	})
}
