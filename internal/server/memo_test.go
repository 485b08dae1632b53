package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sara/internal/arch"
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

// compileDesign compiles req without a server, the way sarasim does.
func compileDesign(t *testing.T, req RunRequest) *sim.Design {
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
	return c.Design()
}

// directResultJSON compiles and simulates req without a server and returns
// json.Marshal of its Result's wire encoding.
func directResultJSON(t *testing.T, req RunRequest, kind sim.EngineKind) string {
	t.Helper()
	d := compileDesign(t, req)
	r, err := sim.CycleEngine(d, simMaxCycles, kind)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.JSON(d.Spec))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemoEqualsFresh: for every registered workload, asked for by both
// engine names the bench and the CLIs spell, the response answered from the
// memo is the response that simulated, byte for byte, and its result is the
// sim-tier record and the bytes json.Marshal makes of a direct
// sim.CycleEngine run's ResultJSON.
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
				if keys := s.store.ListKeys(store.SimStage); len(keys) != 1 {
					t.Errorf("sim tier holds %d records, want 1", len(keys))
				} else if rec, _ := s.store.Get(store.SimStage, keys[0]); string(rec) != resultJSON(t, second) {
					t.Errorf("memo hit is not the stored record\n got: %s\nrecord: %s", resultJSON(t, second), rec)
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
		if got := decodeResult(t, rr).Engine; got != "cycle" {
			t.Errorf("engine %q: result.engine %q, want cycle", engine, got)
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
// runs the same engine and encodes its Result with the same encodeResult, so
// its result is the memo's record byte for byte.
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
	if data, _ := s.store.Get(store.SimStage, keys[0]); string(data) != resultJSON(t, profiled) {
		t.Errorf("memo record %s, profiled result %s", data, resultJSON(t, profiled))
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

// TestMemoCorruptRecordFallsThrough: a truncated record, garbage and valid
// JSON that is not an object each cost one fresh simulation, answer
// correctly, and are rewritten in place.
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
		"truncated":     good[:len(good)/2],
		"garbage":       []byte("\x00not a result\xff"),
		"not an object": []byte(`[1,2]`),
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
		if got, want := resultJSON(t, got), resultJSON(t, want); got != want {
			t.Errorf("%s record: result %s, want %s", label, got, want)
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
	if a, b := resultJSON(t, first), resultJSON(t, second); a != b {
		t.Errorf("restart changed the result: %s vs %s", a, b)
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
			results[i] = string(decodeRun(t, body).Result)
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

// TestResultRecordRoundTrip: the memo's record is the wire result —
// encodeResult's compact bytes of the ResultJSON, engine name included — and
// decodeSimRecord, the check a peer's record passes, reads it back to bytes
// that re-encode identically, down to nil versus empty containers.
func TestResultRecordRoundTrip(t *testing.T) {
	spec := arch.SARA20x20()
	for label, r := range map[string]*sim.Result{
		"nil containers":   {Cycles: 7, Engine: "cycle"},
		"empty containers": {Cycles: 7, Engine: "cycle", Stalls: map[string]int64{}, TopUnits: []sim.UnitStat{}},
		"fully populated": {
			Cycles: 1 << 40, Engine: "cycle", BottleneckVU: "u[3]", BottleneckII: 1.0 / 3, ComputeBusy: 0.1,
			FiredTotal: 99, Stalls: map[string]int64{"token-wait": 5, "input-starved": 1},
			TopUnits: []sim.UnitStat{{Name: "a<b>", Fired: 3, Busy: 2.0 / 7, Stalls: 6, StallIn: 1, StallOut: 2, StallToken: 3}},
		},
	} {
		r.DRAM.TotalBytes, r.DRAM.PeakBytesPerCycle = 1<<33, 102.4
		data, err := encodeResult(r, spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := json.Marshal(r.JSON(spec))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) || !bytes.Contains(data, []byte(`"engine":"cycle"`)) {
			t.Errorf("%s: record %s, want the wire result %s", label, data, want)
		}
		got, err := decodeSimRecord(data)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: decoded record re-encodes to %s (err %v), want %s", label, again, err, data)
		}
	}
}

// TestMemoParentRecordNotServed: a record in the format earlier builds wrote
// (encoding/json of the plain-data sim.Result, Go field names), planted under
// the key formula they used, is never spliced into a response: the key now
// carries the record format, so the request simulates and answers the wire
// result.
func TestMemoParentRecordNotServed(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	req := RunRequest{Workload: "bs", Par: 8, Scale: 16}
	key, err := KeyFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	parentKey := store.NewHasher(store.SimStage, key).Int(sim.Version).I64(simMaxCycles).Sum()
	if parentKey == memoKeyFor(key) {
		t.Fatal("the memo key does not carry the record format")
	}
	d := compileDesign(t, req)
	r, err := sim.CycleEngine(d, simMaxCycles, sim.EngineEvent)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s.store.Put(store.SimStage, parentKey, parent)
	rr := mustRun(t, ts, req)
	if rr.SimCached {
		t.Error("the parent-format record was served as a memo hit")
	}
	if got, want := resultJSON(t, rr), directResultJSON(t, req, sim.EngineEvent); got != want {
		t.Errorf("result %s, want %s", got, want)
	}
	if again := mustRun(t, ts, req); !again.SimCached || resultJSON(t, again) != resultJSON(t, rr) {
		t.Errorf("repeat: sim_cached %v, result %s", again.SimCached, resultJSON(t, again))
	}
}

// FuzzSimRecord: the record checks never panic on arbitrary bytes; a record
// checkSimRecord accepts comes back in the form it keeps (checking it again
// changes nothing), a peer's record is accepted only if checkSimRecord
// accepts it, and an accepted record spliced into a response — with no
// second scan — gives exactly the bytes encoding/json writes for the raw
// record as a response's result. The seed corpus in
// testdata/fuzz/FuzzSimRecord (a real record, a truncated one, garbage, a
// record in the earlier plain-data format and one from before sim.Version 3
// that still names its engine) runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzSimRecord -fuzztime 30s ./internal/server/
func FuzzSimRecord(f *testing.F) {
	s := New(Options{Workers: 1})
	f.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck // nothing in flight
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := checkSimRecord(data)
		env := &artifactEnvelope{SimKey: memoKeyFor("k"), SimRecord: data}
		own := s.acceptSimRecord(env, "k")
		if err != nil {
			if own.record != nil {
				t.Fatalf("a peer's record the check refuses was accepted: %q", data)
			}
			return
		}
		if again, err := checkSimRecord(rec); err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("checking an accepted record again gives %q (err %v), want %q", again, err, rec)
		}
		if own.record != nil && !bytes.Equal(own.record, rec) {
			t.Fatalf("a peer's record is kept as %q, the check's form is %q", own.record, rec)
		}
		spliced := &RunResponse{}
		spliced.setSim(rec, 0, true, 0)
		assertWriterMatches(t, "spliced record", spliced, &RunResponse{SimCached: true, Result: data})
	})
}

// TestHitHoldsNoWorker: with the one worker held and no waiting room, a
// request whose design is in the LRU and whose record is in memory still
// answers, from the handler goroutine, while one that would have to compute
// is shed with 429.
func TestHitHoldsNoWorker(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	hot := RunRequest{Workload: "bs", Par: 4, Scale: 16}
	mustRun(t, ts, hot)
	release := make(chan struct{})
	s.jobGate = func() { <-release }
	held := make(chan struct{})
	go func() {
		defer close(held)
		postRun(t, ts, "/v1/run", RunRequest{Workload: "gda", Par: 4, Scale: 16})
	}()
	waitFor(t, "the worker held", func() bool { return s.pool.Active() == 1 })
	if rr := mustRun(t, ts, hot); !rr.CacheHit || !rr.SimCached {
		t.Errorf("hit: cache_hit %v, sim_cached %v, want both", rr.CacheHit, rr.SimCached)
	}
	if resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 8, Scale: 16}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("a miss with the worker held answered %d, want 429: %s", resp.StatusCode, body)
	}
	close(release)
	<-held
}
