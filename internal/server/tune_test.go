package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/tune"
)

// tuneTestParams is a small ms search exercising dominance pruning and
// design-identity sharing through the serving path.
func tuneTestParams() *TuneParamsJSON {
	return &TuneParamsJSON{
		Space: tune.Space{Pars: []int{4, 8, 16}, DRAMChannels: []int{8, 16}},
		Opts:  []string{"all", "none"},
	}
}

func decodeTune(t *testing.T, body []byte) *tune.Result {
	t.Helper()
	var r tune.Result
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("unmarshal tune result: %v\n%s", err, body)
	}
	return &r
}

// TestTuneEndpoint runs a search through /v1/run and checks the acceptance
// claim: the served front is bit-identical to the library (and therefore to
// cmd/saratune) on the same space, once the wall-clock and cache-traffic
// fields are stripped.
func TestTuneEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", RunRequest{
		Workload: "ms", Scale: 16, Tune: tuneTestParams(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	got := decodeTune(t, body)
	if got.Stats.Explored != 12 {
		t.Errorf("explored = %d, want 12", got.Stats.Explored)
	}
	if got.Stats.PrunedDominated == 0 {
		t.Error("search should exercise dominance pruning")
	}
	if len(got.Front) == 0 {
		t.Fatal("empty Pareto front")
	}

	want, err := tune.Run(tune.Options{
		Workload: "ms", Scale: 16,
		Space: tune.Space{
			Pars:         []int{4, 8, 16},
			Opts:         []tune.OptSet{tune.NamedOptSets[0], tune.NamedOptSets[len(tune.NamedOptSets)-1]},
			DRAMChannels: []int{8, 16},
		},
	})
	if err != nil {
		t.Fatalf("library run: %v", err)
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := got.StripTimings().WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.StripTimings().WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Errorf("served tune result differs from the library on the same space\nserver:\n%s\nlibrary:\n%s",
			gotJSON.Bytes(), wantJSON.Bytes())
	}

	// The tune metrics reflect this search.
	for counter, want := range map[string]int64{
		"sarad_tune_requests_total":         1,
		"sarad_tune_points_explored_total":  12,
		"sarad_tune_points_validated_total": int64(got.Stats.Validated),
		"sarad_tune_points_pruned_total":    int64(got.Stats.PrunedDominated + got.Stats.Unfit),
		"sarad_tune_cycle_sims_total":       int64(got.Stats.CycleSims),
	} {
		if v := s.Metrics().Counter(counter); v != want {
			t.Errorf("%s = %d, want %d", counter, v, want)
		}
	}
}

// TestTuneOnNonDefaultBase: a search over a request's own arch (a scaled chip
// with a slower network) reads each point through tune.Point.Arch, as the
// library does, so the served result equals tune.Run on the same base and
// space — unfit points included — once timings are stripped.
func TestTuneOnNonDefaultBase(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", json.RawMessage(`{"workload":"ms","scale":16,
		"arch":{"scale":2,"net_hop_latency_cycles":3},
		"tune":{"pars":[16,64],"num_pcu":[2,400],"stream_depths":[4,8]}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	got := decodeTune(t, body)
	if got.Stats.Explored != 8 || got.Stats.Unfit == 0 {
		t.Errorf("explored %d points, %d unfit; want 8, at least one unfit", got.Stats.Explored, got.Stats.Unfit)
	}
	want, err := tune.Run(tune.Options{
		Workload: "ms", Scale: 16,
		Base: arch.SpecJSON{Scale: 2, NetHopLatencyCycles: 3},
		Space: tune.Space{
			Pars: []int{16, 64}, NumPCU: []int{2, 400}, StreamDepths: []int{4, 8},
		},
	})
	if err != nil {
		t.Fatalf("library run: %v", err)
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := got.StripTimings().WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.StripTimings().WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Errorf("served tune result differs from the library on the same base and space\nserver:\n%s\nlibrary:\n%s",
			gotJSON.Bytes(), wantJSON.Bytes())
	}
}

// TestTuneWarmsServingCache: candidate compiles content-address into the
// ordinary serving namespace, so a follow-up /v1/run for a configuration
// the search already compiled is a cache hit.
func TestTuneWarmsServingCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", RunRequest{
		Workload: "ms", Scale: 16, Tune: tuneTestParams(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tune status = %d: %s", resp.StatusCode, body)
	}
	// The follow-up states the same knobs the candidate request pinned
	// (content addressing is syntactic: an explicit override equal to the
	// preset value still keys differently from an absent one).
	resp, body = postRun(t, ts, "/v1/run", RunRequest{
		Workload: "ms", Par: 16, Scale: 16, Engine: "analytic",
		Arch: &arch.SpecJSON{DRAMChannels: 16},
		Options: &CompileOptionsJSON{
			SkipPlace: true,
			Opt:       &OptTogglesJSON{MSR: true, RtElm: true, Retime: true, RetimeMem: true, XbarElm: true},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d: %s", resp.StatusCode, body)
	}
	if rr := decodeRun(t, body); !rr.CacheHit {
		t.Error("follow-up request for a tuned configuration should hit the cache the search warmed")
	}
}

// TestTuneValidation pins the request-shape errors: inline programs,
// engine/profile combinations, bad opt-set names, and over-cap spaces are
// all rejected before any work is scheduled.
func TestTuneValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, TuneMaxPoints: 8})
	for _, tc := range []struct {
		name    string
		req     RunRequest
		status  int
		errFrag string
	}{
		{
			name:    "inline program",
			req:     RunRequest{Program: dotProgram(), Tune: tuneTestParams()},
			status:  http.StatusBadRequest,
			errFrag: "inline programs are not tunable",
		},
		{
			name:    "engine override",
			req:     RunRequest{Workload: "ms", Engine: "analytic", Tune: tuneTestParams()},
			status:  http.StatusBadRequest,
			errFrag: "cannot pick engine",
		},
		{
			name:    "profile",
			req:     RunRequest{Workload: "ms", Profile: true, Tune: tuneTestParams()},
			status:  http.StatusBadRequest,
			errFrag: "bottleneck attribution",
		},
		{
			name:    "unknown opt set",
			req:     RunRequest{Workload: "ms", Tune: &TuneParamsJSON{Opts: []string{"bogus"}}},
			status:  http.StatusBadRequest,
			errFrag: "unknown opt set",
		},
		{
			name:    "over the server cap",
			req:     RunRequest{Workload: "ms", Tune: tuneTestParams()},
			status:  http.StatusBadRequest,
			errFrag: "caps searches at 8",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, "/v1/run", tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if !strings.Contains(string(body), tc.errFrag) {
				t.Errorf("error %s does not mention %q", body, tc.errFrag)
			}
		})
	}
	// /v1/compile cannot host a search.
	resp, body := postRun(t, ts, "/v1/compile", RunRequest{Workload: "ms", Tune: &TuneParamsJSON{Space: tune.Space{Pars: []int{4}}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "/v1/run") {
		t.Errorf("tune on /v1/compile: status %d body %s, want 400 pointing at /v1/run", resp.StatusCode, body)
	}
}
