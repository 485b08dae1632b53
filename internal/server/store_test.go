package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"sara/internal/store"
)

// TestStoreWarmRestart: a second server over the same store directory serves
// the first server's compile from its warmed LRU — cache_hit with zero
// compile work — and stage-level entries persist for incremental reuse.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"}

	_, ts1 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	resp, body := postRun(t, ts1, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d: %s", resp.StatusCode, body)
	}
	first := decodeRun(t, body)
	if first.CacheHit {
		t.Fatal("first request was a cache hit on an empty store")
	}
	if first.Store == nil || first.Store.DiskEntries == 0 {
		t.Fatalf("no disk entries persisted: %+v", first.Store)
	}
	if len(first.StageCache) == 0 {
		t.Fatal("response carries no stage_cache flags")
	}

	s2, ts2 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	if err := s2.StoreError(); err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	if got := s2.Metrics().Counter("sarad_cache_warmed_total"); got == 0 {
		t.Fatal("restarted server warmed nothing from the store")
	}
	resp2, body2 := postRun(t, ts2, "/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d: %s", resp2.StatusCode, body2)
	}
	second := decodeRun(t, body2)
	if !second.CacheHit {
		t.Error("restarted server recompiled a persisted design")
	}
	if got, want := decodeResult(t, second).Cycles, decodeResult(t, first).Cycles; got != want {
		t.Errorf("replayed design simulates differently: %d vs %d cycles", got, want)
	}
}

// TestStoreStageReuseAcrossRequests: a one-knob par change on a fresh server
// process reuses the par-free consistency stage from the store and reports
// it in stage_cache.
func TestStoreStageReuseAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/compile", RunRequest{Workload: "ms", Par: 4, Scale: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d: %s", resp.StatusCode, body)
	}
	resp2, body2 := postRun(t, ts, "/v1/compile", RunRequest{Workload: "ms", Par: 8, Scale: 64})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second compile: %d: %s", resp2.StatusCode, body2)
	}
	rr := decodeRun(t, body2)
	if rr.CacheHit {
		t.Fatal("par change must not hit the final-design LRU")
	}
	if !rr.StageCache["consistency"] {
		t.Errorf("par-only change did not reuse the consistency stage: %v", rr.StageCache)
	}
	if rr.StageCache["lower"] {
		t.Error("par change cannot reuse the lowered graph (lowering applies par)")
	}
	if rr.Store == nil || rr.Store.Stages["consistency"].Hits == 0 {
		t.Errorf("store counters show no consistency hits: %+v", rr.Store)
	}
}

// TestStoreUnwritableDirFallsBack: a bad store path degrades to memory-only
// and keeps serving.
func TestStoreUnwritableDirFallsBack(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, StoreDir: "/dev/null/not-a-dir"})
	if s.StoreError() == nil {
		t.Fatal("expected a store-open error for an impossible directory")
	}
	resp, body := postRun(t, ts, "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "analytic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded server stopped serving: %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsExposeStoreCounters: /metrics renders the per-stage store
// gauges.
func TestMetricsExposeStoreCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	if resp, body := postRun(t, ts, "/v1/compile", RunRequest{Workload: "bs", Par: 4, Scale: 64}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, metric := range []string{
		"sarad_store_stage_misses_consistency",
		"sarad_store_stage_bytes_written_merge",
		"sarad_store_disk_bytes",
		"sarad_store_solver_hits",
		// every exported tier, not a hand-kept list:
		"sarad_store_stage_hits_" + store.FinalStage,
		"sarad_store_stage_hits_" + store.SimStage,
		"sarad_store_stage_bytes_written_" + store.SolverStage,
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %s", metric)
		}
	}
}
