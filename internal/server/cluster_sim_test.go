package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/workloads"
)

// resultJSON is a response's simulation result exactly as it came off the
// wire.
func resultJSON(t *testing.T, rr *RunResponse) string {
	t.Helper()
	if rr.Result == nil {
		t.Fatal("response carries no result")
	}
	return string(rr.Result)
}

// decodeResult is the one place a test reads fields of a response's result.
func decodeResult(t *testing.T, rr *RunResponse) *sim.ResultJSON {
	t.Helper()
	r := &sim.ResultJSON{}
	if err := json.Unmarshal(rr.Result, r); err != nil {
		t.Fatalf("result %q does not decode: %v", rr.Result, err)
	}
	return r
}

// runNode posts req to a node's /v1/run and decodes the 200 response.
func runNode(t *testing.T, baseURL string, req RunRequest) *RunResponse {
	t.Helper()
	resp, body := postNode(t, baseURL, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run %+v on %s: %d: %s", req, baseURL, resp.StatusCode, body)
	}
	return decodeRun(t, body)
}

// rendered is a node's /metrics text.
func rendered(s *Server) string {
	var buf bytes.Buffer
	s.Metrics().Render(&buf)
	return buf.String()
}

// TestClusterOneSimulationPerDesign: every node in turn asks for each of the
// twelve workloads, starting at the ring owner or at a non-owner. The cluster
// compiles and simulates each design exactly once — the owner simulates for
// the non-owner that asks first — and every answer carries the result a
// standalone sarad and a direct sim.CycleEngine run produce.
func TestClusterOneSimulationPerDesign(t *testing.T) {
	names := workloads.Names()
	standalone, direct := map[string]string{}, map[string]string{}
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, name := range names {
		req := RunRequest{Workload: name, Par: 16, Scale: 16}
		standalone[name] = resultJSON(t, mustRun(t, ts, req))
		direct[name] = directResultJSON(t, req, sim.EngineAuto)
	}
	for _, n := range []int{2, 3} {
		for _, ownerFirst := range []bool{true, false} {
			n, ownerFirst := n, ownerFirst
			t.Run(fmt.Sprintf("nodes=%d/owner-first=%v", n, ownerFirst), func(t *testing.T) {
				t.Parallel()
				lc := startCluster(t, n, clusterTestOptions())
				var cycles int64
				for _, name := range names {
					req := RunRequest{Workload: name, Par: 16, Scale: 16}
					key, err := KeyFor(&req)
					if err != nil {
						t.Fatal(err)
					}
					owner := lc.OwnerIndex(key)
					first := owner
					if !ownerFirst {
						first = (owner + 1) % n
					}
					for i := 0; i < n; i++ {
						node := (first + i) % n
						rr := runNode(t, lc.URLs[node], req)
						label := fmt.Sprintf("%s at node %d (owner %d, ask %d)", name, node, owner, i)
						if got := resultJSON(t, rr); got != standalone[name] || got != direct[name] {
							t.Errorf("%s: result differs\n got: %s\nstandalone: %s\n    direct: %s", label, got, standalone[name], direct[name])
						}
						if rr.Proxied != (node != owner) {
							t.Errorf("%s: proxied %v", label, rr.Proxied)
						}
						// The first ask ran the one simulation — here or, proxied,
						// on the owner — and every later one got its record.
						if rr.SimCached != (i > 0) {
							t.Errorf("%s: sim_cached %v", label, rr.SimCached)
						}
						if i == 0 {
							if rr.SimMS <= 0 || rr.SimCyclesPerSec <= 0 {
								t.Errorf("%s: ran the simulation but reports sim_ms %g, sim_cycles_per_sec %g", label, rr.SimMS, rr.SimCyclesPerSec)
							}
							cycles += decodeResult(t, rr).Cycles
						} else if rr.SimCyclesPerSec != 0 {
							t.Errorf("%s: no engine ran but sim_cycles_per_sec is %g", label, rr.SimCyclesPerSec)
						}
					}
				}
				if got := clusterCounter(lc, "sarad_sim_memo_misses_total"); got != int64(len(names)) {
					t.Errorf("cluster-wide simulations = %d, want one per design (%d)", got, len(names))
				}
				if got := totalCompiles(lc); got != int64(len(names)) {
					t.Errorf("cluster-wide compiles = %d, want %d", got, len(names))
				}
				if got := clusterCounter(lc, "sarad_cycles_simulated_total"); got != cycles {
					t.Errorf("cluster-wide simulated cycles = %d, want each design's once (%d)", got, cycles)
				}
				if got := clusterCounter(lc, "sarad_proxy_sim_records_total"); got != int64(len(names)*(n-1)) {
					t.Errorf("records taken from owners = %d, want one per design and non-owner (%d)", got, len(names)*(n-1))
				}
				if got := clusterCounter(lc, "sarad_proxy_sim_records_rejected_total"); got != 0 {
					t.Errorf("%d records rejected between nodes of one build", got)
				}
			})
		}
	}
}

// TestClusterOwnerSimulationAccounting: when the owner runs the simulation
// for a proxied request, the requester reports it as run (sim_cached false)
// with the owner's time as sim_ms and without it in compile_ms, and the
// simulation's counters are the owner's alone.
func TestClusterOwnerSimulationAccounting(t *testing.T) {
	const delay = 500 * time.Millisecond
	lc := startCluster(t, 2, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)
	lc.Servers[owner].simGate = func() { time.Sleep(delay) }

	rr := runNode(t, lc.URLs[0], req)
	if !rr.Proxied || rr.SimCached {
		t.Errorf("proxied %v, sim_cached %v; want the owner's run reported as run", rr.Proxied, rr.SimCached)
	}
	if rr.SimMS < float64(delay.Milliseconds()) {
		t.Errorf("sim_ms %g is not the owner's simulation time (≥ %v)", rr.SimMS, delay)
	}
	if rr.CompileMS >= float64(delay.Milliseconds()) {
		t.Errorf("compile_ms %g includes the owner's simulation (%v)", rr.CompileMS, delay)
	}
	// sim_ms is whole microseconds of the owner's time, sim_cycles_per_sec
	// comes from the time itself.
	cycles := decodeResult(t, rr).Cycles
	if want := float64(cycles) / (rr.SimMS / 1e3); math.Abs(rr.SimCyclesPerSec/want-1) > 1e-5 {
		t.Errorf("sim_cycles_per_sec %g, want cycles / owner's seconds ≈ %g", rr.SimCyclesPerSec, want)
	}
	mustEqualResults(t, "owner-simulated", rr, standaloneResult(t, req))

	requester, ownerNode := lc.Servers[0], lc.Servers[owner]
	if n := requester.Metrics().Counter("sarad_cycles_simulated_total"); n != 0 {
		t.Errorf("requester counted %d simulated cycles; it ran no engine", n)
	}
	if n := ownerNode.Metrics().Counter("sarad_cycles_simulated_total"); n != cycles {
		t.Errorf("owner counted %d simulated cycles, want %d", n, cycles)
	}
	if text := rendered(requester); strings.Contains(text, "sarad_sim_seconds_count") {
		t.Error("requester observed sarad_sim_seconds for a run it did not execute")
	}
	if text := rendered(ownerNode); !strings.Contains(text, "sarad_sim_seconds_count 1\n") {
		t.Error("owner did not observe sarad_sim_seconds once")
	}
	for _, c := range []struct {
		s      *Server
		metric string
		want   int64
	}{
		{requester, "sarad_proxy_sim_records_total", 1},
		{requester, "sarad_sim_memo_misses_total", 0},
		{requester, "sarad_sim_memo_hits_total", 0},
		{ownerNode, "sarad_artifact_sims_total", 1},
		{ownerNode, "sarad_sim_memo_misses_total", 1},
	} {
		if got := c.s.Metrics().Counter(c.metric); got != c.want {
			t.Errorf("%s = %d, want %d", c.metric, got, c.want)
		}
	}
}

// TestClusterUntrustedSimRecordIgnored: an owner whose record is not the one
// the requester would have stored — another memo key, or bytes that do not
// decode — is ignored: the requester simulates locally, answers correctly,
// and its sim tier holds only the record it computed itself.
func TestClusterUntrustedSimRecordIgnored(t *testing.T) {
	for label, tamper := range map[string]func(*artifactEnvelope){
		"key mismatch":       func(env *artifactEnvelope) { env.SimKey = strings.Repeat("0", len(env.SimKey)) },
		"undecodable record": func(env *artifactEnvelope) { env.SimRecord = []byte("\x00not a result\xff") },
	} {
		tamper := tamper
		t.Run(label, func(t *testing.T) {
			// A real standalone node does the owner's work; the fake in front of
			// it tampers with the envelope on the way out.
			backing, _ := newTestServer(t, Options{Workers: 2})
			shipped := make(chan artifactEnvelope, 1)
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/artifact" {
					backing.Handler().ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				backing.Handler().ServeHTTP(rec, r)
				env := &artifactEnvelope{}
				if err := json.Unmarshal(rec.Body.Bytes(), env); err != nil || env.SimKey == "" {
					t.Errorf("owner answered no record (err %v): %.200s", err, rec.Body.Bytes())
				}
				select {
				case shipped <- *env:
				default:
					t.Error("the requester asked the owner twice")
				}
				tamper(env)
				writeJSON(w, http.StatusOK, env)
			}))
			t.Cleanup(fake.Close)

			const self = "http://requester.invalid" // never contacted: only peers are
			s, ts := newTestServer(t, Options{Workers: 2, Peers: []string{fake.URL}, SelfURL: self})
			ring := NewRing(fake.URL, self)
			var req RunRequest
			for par := 2; ; par += 2 {
				req = RunRequest{Workload: "gda", Par: par, Scale: 16}
				key, err := KeyFor(&req)
				if err != nil {
					t.Fatal(err)
				}
				if ring.Owner(key) == fake.URL {
					break
				}
			}

			rr := mustRun(t, ts, req)
			if !rr.Proxied || rr.SimCached {
				t.Errorf("proxied %v, sim_cached %v; want a proxied compile simulated here", rr.Proxied, rr.SimCached)
			}
			if got, want := resultJSON(t, rr), directResultJSON(t, req, sim.EngineAuto); got != want {
				t.Errorf("result differs from a direct run\n got: %s\nwant: %s", got, want)
			}
			m := s.Metrics()
			if n := m.Counter("sarad_proxy_sim_records_rejected_total"); n != 1 {
				t.Errorf("sarad_proxy_sim_records_rejected_total = %d, want 1", n)
			}
			if n := m.Counter("sarad_proxy_sim_records_total"); n != 0 {
				t.Errorf("sarad_proxy_sim_records_total = %d, want 0", n)
			}
			if n := m.Counter("sarad_sim_memo_misses_total"); n != 1 {
				t.Errorf("requester simulated %d times, want 1", n)
			}
			// Its own record is the untampered one: same key, same bytes.
			good := <-shipped
			keys := s.store.ListKeys(store.SimStage)
			if len(keys) != 1 || keys[0] != good.SimKey {
				t.Fatalf("sim tier holds %v, want only %s", keys, good.SimKey)
			}
			if data, _ := s.store.Get(store.SimStage, keys[0]); !bytes.Equal(data, good.SimRecord) {
				t.Errorf("sim tier record %q, want the requester's own %q", data, good.SimRecord)
			}
		})
	}
}

// TestClusterOwnerSimWaitBounded: an owner whose simulation is still running
// half its ProxyTimeout after the ask arrived answers with the artifact alone.
// The requester simulates locally and answers 200 with no proxy retry or
// failure and the peer still healthy; the owner's run finishes into its memo.
func TestClusterOwnerSimWaitBounded(t *testing.T) {
	opts := clusterTestOptions()
	opts.ProxyTimeout = 2 * time.Second
	lc := startCluster(t, 2, opts)
	req, owner := crossNodeRequest(t, lc, 0)
	release := make(chan struct{})
	lc.Servers[owner].simGate = func() { <-release }
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	rr := runNode(t, lc.URLs[0], req)
	if !rr.Proxied || rr.SimCached {
		t.Errorf("proxied %v, sim_cached %v; want a proxied compile simulated here", rr.Proxied, rr.SimCached)
	}
	mustEqualResults(t, "past the owner's budget", rr, standaloneResult(t, req))
	requester, ownerNode := lc.Servers[0], lc.Servers[owner]
	for _, c := range []struct {
		s      *Server
		metric string
		want   int64
	}{
		{requester, "sarad_proxy_success_total", 1},
		{requester, "sarad_proxy_retries_total", 0},
		{requester, "sarad_proxy_failures_total", 0},
		{requester, "sarad_proxy_sim_records_total", 0},
		{requester, "sarad_sim_memo_misses_total", 1},
		{ownerNode, "sarad_artifact_sims_total", 1},
		{ownerNode, "sarad_artifact_sim_budget_exceeded_total", 1},
	} {
		if got := c.s.Metrics().Counter(c.metric); got != c.want {
			t.Errorf("%s = %d, want %d", c.metric, got, c.want)
		}
	}
	if !requester.cluster.byURL[lc.URLs[owner]].isHealthy() {
		t.Error("an owner that answered without a record was marked unhealthy")
	}

	close(release)
	released = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ownerNode.flights.drain(ctx); err != nil {
		t.Fatal(err)
	}
	again := runNode(t, lc.URLs[owner], req)
	if !again.CacheHit || !again.SimCached {
		t.Errorf("owner's next request: cache_hit %v, sim_cached %v, want both", again.CacheHit, again.SimCached)
	}
	if n := ownerNode.Metrics().Counter("sarad_sim_memo_misses_total"); n != 1 {
		t.Errorf("owner simulated %d times, want 1", n)
	}
}

// TestClusterUnfinishedDesignThroughProxy: a design whose simulation fails
// (rf par 48 deadlocks until ROADMAP item 1 lands) answers through a
// non-owner exactly as standalone sarad does, and no node keeps a record of
// a failure.
func TestClusterUnfinishedDesignThroughProxy(t *testing.T) {
	req := RunRequest{Workload: "rf", Par: 48, Scale: 64}
	ref, refTS := newTestServer(t, Options{Workers: 2})
	wantResp, wantBody := postRun(t, refTS, "/v1/run", req)

	lc := startCluster(t, 2, clusterTestOptions())
	key, err := KeyFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	requester := 1 - lc.OwnerIndex(key)
	resp, body := postNode(t, lc.URLs[requester], "/v1/run", req)
	if resp.StatusCode != wantResp.StatusCode {
		t.Fatalf("through the proxy: status %d, standalone %d\n%s\nvs\n%s", resp.StatusCode, wantResp.StatusCode, body, wantBody)
	}
	if resp.StatusCode == http.StatusOK {
		mustEqualResults(t, "through the proxy", decodeRun(t, body), decodeRun(t, wantBody))
		return
	}
	if !bytes.Equal(body, wantBody) {
		t.Errorf("through the proxy:\n%s\nstandalone:\n%s", body, wantBody)
	}
	for i, s := range append([]*Server{ref}, lc.Servers...) {
		if keys := s.store.ListKeys(store.SimStage); len(keys) != 0 {
			t.Errorf("server %d stored a record of a failed simulation: %v", i, keys)
		}
	}
}

// FuzzArtifactEnvelope feeds arbitrary bodies through the requester's half of
// /v1/artifact: the owner layer of resolve — fetchArtifact's decodeEnvelope,
// store.DecodeArtifact and acceptSimRecord — answered by a stand-in owner
// that sends the body. Peer records are spliced into responses as they are
// stored, so the record check is the whole defence. The properties: nothing
// panics; a record is stored, and spliced, only if checkSimRecord accepts
// it, and then in the form checkSimRecord gives it, which splices to
// encoding/json's bytes for the record as sent; and every artifact accepted
// re-encodes to its own bytes (EncodeArtifact∘DecodeArtifact = id). The seed
// corpus in testdata/fuzz/FuzzArtifactEnvelope (a real envelope for the
// inline dot-product program with and without its record, records that are
// not objects, need escaping or do not decode as a result, a truncated
// artifact, a foreign key and garbage) runs under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzArtifactEnvelope -fuzztime 30s ./internal/server/
func FuzzArtifactEnvelope(f *testing.F) {
	req := &RunRequest{Program: dotProgram()}
	key, err := KeyFor(req)
	if err != nil {
		f.Fatal(err)
	}
	const owner = "http://owner.invalid"
	s := New(Options{Workers: 1})
	f.Cleanup(func() { s.Close(context.Background()) }) //nolint:errcheck // nothing in flight
	s.cluster = newCluster(Options{Peers: []string{owner}, SelfURL: "http://requester.invalid"}.withDefaults(), s.metrics)
	var answer []byte
	s.cluster.client = &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(answer))}, nil
	})}
	f.Fuzz(func(t *testing.T, body []byte) {
		answer = body
		s.store, _ = store.Open("")                 // each input starts from an empty store
		s.cluster.byURL[owner].setHealth(true, nil) // and a healthy owner
		own, ok := s.fromOwner(context.Background(), owner, key, req, true)
		stored, inTier := s.store.Get(store.SimStage, memoKeyFor(key))
		env, err := decodeEnvelope(bytes.NewReader(body), key)
		if err != nil {
			if ok || inTier {
				t.Fatalf("an answer that is no envelope for the key was taken in: %q", body)
			}
			return
		}
		if !ok {
			if inTier || own.record != nil {
				t.Fatalf("an artifact that does not decode left a record: %q", env.SimRecord)
			}
			return
		}
		a, err := store.DecodeArtifact(env.Artifact)
		if err != nil {
			t.Fatalf("admitted artifact does not decode again: %v", err)
		}
		if again := store.EncodeArtifact(a); !bytes.Equal(again, env.Artifact) {
			t.Fatalf("an accepted artifact re-encodes to %d other bytes (%d sent)", len(again), len(env.Artifact))
		}
		rec, checkErr := checkSimRecord(env.SimRecord)
		if own.record == nil {
			if inTier {
				t.Fatalf("a refused record was stored: %q", stored)
			}
			return
		}
		if checkErr != nil {
			t.Fatalf("a record the check refuses was accepted: %q", env.SimRecord)
		}
		if !bytes.Equal(own.record, rec) || !bytes.Equal(stored, rec) {
			t.Fatalf("record kept as %q and stored as %q, the check's form is %q", own.record, stored, rec)
		}
		spliced := &RunResponse{}
		spliced.setSim(own.record, 0, true, 0)
		assertWriterMatches(t, "spliced peer record", spliced, &RunResponse{SimCached: true, Result: env.SimRecord})
	})
}

// roundTripFunc answers HTTP requests without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
