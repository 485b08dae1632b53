package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestRunProfiled exercises the profile request option end to end: the
// response carries the inline report, profiling reuses the cached compile of
// an unprofiled request for the same work, and the per-cause stall counters
// land in /metrics.
func TestRunProfiled(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "mlp", Par: 4, Scale: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unprofiled run: status = %d: %s", resp.StatusCode, body)
	}
	plain := decodeRun(t, body)
	if plain.Profile != nil {
		t.Error("unprofiled run carries a profile")
	}

	resp, body = postRun(t, ts, "/v1/run", RunRequest{Workload: "mlp", Par: 4, Scale: 64, Profile: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled run: status = %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Profile == nil {
		t.Fatalf("profiled run missing profile: %s", body)
	}
	cycles := decodeResult(t, rr).Cycles
	if rr.Profile.Cycles != cycles {
		t.Errorf("profile cycles %d, result cycles %d", rr.Profile.Cycles, cycles)
	}
	if len(rr.Profile.StallsByCause) == 0 || len(rr.Profile.Units) == 0 || len(rr.Profile.CriticalPath) == 0 {
		t.Errorf("profile report incomplete: %+v", rr.Profile)
	}
	// The causes are the five stall causes, and they split the result's
	// coarse stall total.
	causes := map[string]bool{"upstream-wait": true, "dram-wait": true, "output-blocked": true,
		"token-wait": true, "credit-wait": true}
	var byCause, coarse int64
	for c, n := range rr.Profile.StallsByCause {
		if !causes[c] {
			t.Errorf("stalls_by_cause has %q, not a stall cause", c)
		}
		byCause += n
	}
	for _, n := range decodeResult(t, rr).Stalls {
		coarse += n
	}
	if byCause != coarse {
		t.Errorf("stalls_by_cause sums to %d, the result's stalls to %d", byCause, coarse)
	}
	if plainCycles := decodeResult(t, plain).Cycles; cycles != plainCycles {
		t.Errorf("profiling changed the simulation: %d vs %d cycles", cycles, plainCycles)
	}
	// Profile is a simulation option, not a compile option: same cache entry.
	if rr.CacheKey != plain.CacheKey || !rr.CacheHit {
		t.Errorf("profiled request missed the compile cache (key %s vs %s, hit=%v)",
			rr.CacheKey, plain.CacheKey, rr.CacheHit)
	}

	if s.Metrics().Counter("sarad_sim_profiled_requests_total") != 1 {
		t.Error("profiled request counter not incremented")
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(buf)
	metrics := string(buf[:n])
	for _, want := range []string{
		"sarad_sim_stall_cycles_input_starved_total",
		"sarad_sim_stall_cycles_token_wait_total",
		"sarad_sim_profiled_stall_cycles_",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestRunProfileRejectsAnalytic pins the validation error: the analytic model
// has no timeline to profile.
func TestRunProfileRejectsAnalytic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postRun(t, ts, "/v1/run",
		RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic", Profile: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "cycle-level engine") {
		t.Errorf("error message does not explain the engine requirement: %s", body)
	}
}
