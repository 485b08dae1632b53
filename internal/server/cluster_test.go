package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sara/internal/store"
)

// clusterTestOptions keeps the suite fast: small pools, quick health
// probes, generous proxy timeout (tests that exercise the timeout override
// it).
func clusterTestOptions() Options {
	return Options{Workers: 2, HealthInterval: 50 * time.Millisecond, ProxyTimeout: 10 * time.Second}
}

func startCluster(t *testing.T, n int, base Options) *LocalCluster {
	t.Helper()
	lc, err := StartLocalCluster(n, base)
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := lc.Close(ctx); err != nil {
			t.Errorf("closing cluster: %v", err)
		}
	})
	return lc
}

// postNode is postRun against an arbitrary base URL.
func postNode(t *testing.T, baseURL, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", baseURL, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

// crossNodeRequest finds a request whose content address is owned by a node
// other than requester, by scanning par values. With 3 members each par has
// a ~2/3 chance, so the scan terminates almost immediately.
func crossNodeRequest(t *testing.T, lc *LocalCluster, requester int) (RunRequest, int) {
	t.Helper()
	for par := 2; par <= 64; par += 2 {
		req := RunRequest{Workload: "bs", Par: par, Scale: 64, Engine: "cycle"}
		key, err := KeyFor(&req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if idx := lc.OwnerIndex(key); idx >= 0 && idx != requester {
			return req, idx
		}
	}
	t.Fatal("no cross-node request found in scan range")
	return RunRequest{}, -1
}

// clusterCounter sums a counter over every node.
func clusterCounter(lc *LocalCluster, name string) int64 {
	var n int64
	for _, s := range lc.Servers {
		n += s.Metrics().Counter(name)
	}
	return n
}

// totalCompiles sums actual (non-proxied, non-cached) compiles across the
// cluster.
func totalCompiles(lc *LocalCluster) int64 { return clusterCounter(lc, "sarad_compiles_total") }

// standaloneResult runs req on a fresh standalone server and returns the
// response — the reference any cluster response must be bit-identical to.
func standaloneResult(t *testing.T, req RunRequest) *RunResponse {
	t.Helper()
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postRun(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standalone run: %d: %s", resp.StatusCode, body)
	}
	return decodeRun(t, body)
}

// mustEqualResults asserts the simulation payloads are byte-identical on the
// wire.
func mustEqualResults(t *testing.T, label string, got, want *RunResponse) {
	t.Helper()
	if gb, wb := resultJSON(t, got), resultJSON(t, want); gb != wb {
		t.Errorf("%s: result differs from standalone sarad\n got: %s\nwant: %s", label, gb, wb)
	}
	if got.Resources != want.Resources {
		t.Errorf("%s: resources differ: %+v vs %+v", label, got.Resources, want.Resources)
	}
}

// TestClusterProxyCompilesOnceBitIdentical: a request landing on a
// non-owner node is proxied to the ring owner, compiles exactly once
// cluster-wide, and the response is bit-identical to a standalone sarad
// answering the same request.
func TestClusterProxyCompilesOnceBitIdentical(t *testing.T) {
	lc := startCluster(t, 3, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)

	resp, body := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run: %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if !rr.Proxied || rr.ProxyOwner != lc.URLs[owner] {
		t.Errorf("proxied=%v owner=%q, want proxied via %q", rr.Proxied, rr.ProxyOwner, lc.URLs[owner])
	}
	if rr.CacheHit {
		t.Error("first cluster request reported cache_hit")
	}
	if got := totalCompiles(lc); got != 1 {
		t.Errorf("cluster-wide compiles = %d, want exactly 1", got)
	}
	if n := lc.Servers[0].Metrics().Counter("sarad_compiles_total"); n != 0 {
		t.Errorf("requester compiled locally (%d) despite healthy owner", n)
	}
	if n := lc.Servers[owner].Metrics().Counter("sarad_artifact_served_total"); n != 1 {
		t.Errorf("owner served %d artifacts, want 1", n)
	}

	mustEqualResults(t, "proxied", rr, standaloneResult(t, req))

	// A repeat on the same node is a plain local LRU hit: no second proxy
	// round trip, still zero compiles on the requester.
	resp2, body2 := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat run: %d: %s", resp2.StatusCode, body2)
	}
	rr2 := decodeRun(t, body2)
	if !rr2.CacheHit || rr2.Proxied {
		t.Errorf("repeat: cache_hit=%v proxied=%v, want local hit", rr2.CacheHit, rr2.Proxied)
	}
	if got := totalCompiles(lc); got != 1 {
		t.Errorf("repeat recompiled: cluster-wide compiles = %d", got)
	}
}

// TestClusterCrossNodeSingleFlight: M concurrent identical requests fanned
// across every node collapse to exactly one compile and one simulation
// cluster-wide — each node's flight table dedupes it to at most one proxy
// call, and the owner's (design and result alike) collapses those across
// nodes. Run under -race by `make ci`.
func TestClusterCrossNodeSingleFlight(t *testing.T) {
	lc := startCluster(t, 3, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)

	const m = 9
	results := make([]*RunResponse, m)
	codes := make([]int, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postNode(t, lc.URLs[i%len(lc.URLs)], "/v1/run", req)
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				results[i] = decodeRun(t, body)
			}
		}()
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := totalCompiles(lc); got != 1 {
		t.Errorf("cluster-wide compiles = %d for %d concurrent identical requests, want 1", got, m)
	}
	if got := lc.Servers[owner].Metrics().Counter("sarad_artifact_sims_total"); got > 1 {
		t.Errorf("owner ran %d simulations for the proxied asks, want at most 1", got)
	}
	if got := clusterCounter(lc, "sarad_sim_memo_misses_total"); got != 1 {
		t.Errorf("cluster-wide simulations = %d for %d concurrent identical requests, want 1", got, m)
	}
	ref := resultJSON(t, results[0])
	for i := 1; i < m; i++ {
		if b := resultJSON(t, results[i]); b != ref {
			t.Errorf("request %d result differs:\n%s\nvs\n%s", i, b, ref)
		}
	}
	// No request lost or double-counted: per-node 200 counts sum to M.
	var served int64
	for _, s := range lc.Servers {
		served += s.Metrics().RequestCount("/v1/run", http.StatusOK)
	}
	if served != m {
		t.Errorf("nodes served %d /v1/run 200s, want %d", served, m)
	}
	var failures int64
	for _, s := range lc.Servers {
		failures += s.Metrics().Counter("sarad_proxy_failures_total")
	}
	if failures != 0 {
		t.Errorf("healthy cluster recorded %d proxy failures", failures)
	}
}

// TestClusterOwnerDeadFallsBackLocal: with the owner already dead, a
// request on another node degrades to standalone behavior — local compile,
// bit-identical response, one clean fallback counter, request counted
// exactly once.
func TestClusterOwnerDeadFallsBackLocal(t *testing.T) {
	lc := startCluster(t, 3, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)
	lc.Kill(owner)

	resp, body := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with dead owner: %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Proxied {
		t.Error("response claims proxied though the owner is dead")
	}
	mustEqualResults(t, "dead-owner fallback", rr, standaloneResult(t, req))

	m := lc.Servers[0].Metrics()
	if n := m.Counter("sarad_compiles_total"); n != 1 {
		t.Errorf("requester compiles = %d, want 1 (local fallback)", n)
	}
	if n := m.Counter("sarad_proxy_fallback_local_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
	if n := m.RequestCount("/v1/run", http.StatusOK); n != 1 {
		t.Errorf("request counted %d times, want once", n)
	}
	// The failed fetch marks the peer unhealthy, so the next miss for a key
	// it owns skips straight to local compile without a network round trip.
	attempts := m.Counter("sarad_proxy_attempts_total")
	req2 := req
	req2.Scale = 128
	for par := 2; par <= 64; par += 2 {
		req2.Par = par
		key, err := KeyFor(&req2)
		if err != nil {
			t.Fatal(err)
		}
		if lc.OwnerIndex(key) == owner {
			break
		}
	}
	if key, _ := KeyFor(&req2); lc.OwnerIndex(key) != owner {
		t.Skip("no second key owned by the dead node in scan range")
	}
	resp2, body2 := postNode(t, lc.URLs[0], "/v1/run", req2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d: %s", resp2.StatusCode, body2)
	}
	if got := m.Counter("sarad_proxy_attempts_total"); got != attempts {
		t.Errorf("proxy attempted (%d -> %d) against a peer already marked unhealthy", attempts, got)
	}
	if n := m.Counter("sarad_proxy_skipped_unhealthy_total"); n == 0 {
		t.Error("skipped-unhealthy counter never incremented")
	}
}

// TestClusterOwnerKilledMidRequest: the owner dies while holding the
// proxied compile; the requester's in-flight fetch fails, the retry hits a
// closed port, and the request still succeeds via local compile with a
// bit-identical response.
func TestClusterOwnerKilledMidRequest(t *testing.T) {
	lc := startCluster(t, 3, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	lc.Servers[owner].jobGate = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	defer close(release)

	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		resp, body := postNode(t, lc.URLs[0], "/v1/run", req)
		done <- reply{resp.StatusCode, body}
	}()

	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("owner never started the proxied compile")
	}
	lc.Kill(owner) // cuts the in-flight artifact connection

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("run with owner killed mid-request: %d: %s", r.code, r.body)
	}
	rr := decodeRun(t, r.body)
	if rr.Proxied {
		t.Error("response claims proxied though the owner died mid-request")
	}
	mustEqualResults(t, "mid-request kill", rr, standaloneResult(t, req))
	m := lc.Servers[0].Metrics()
	if n := m.Counter("sarad_proxy_failures_total"); n != 1 {
		t.Errorf("proxy failures = %d, want 1", n)
	}
	if n := m.Counter("sarad_proxy_fallback_local_total"); n != 1 {
		t.Errorf("fallback counter = %d, want 1", n)
	}
	if n := m.Counter("sarad_compiles_total"); n != 1 {
		t.Errorf("requester compiles = %d, want 1", n)
	}
}

// TestClusterOwnerHangFallsBack: an owner that hangs past the proxy timeout
// (rather than dying) costs the requester two bounded attempts, then the
// request degrades to a local compile and still succeeds.
func TestClusterOwnerHangFallsBack(t *testing.T) {
	opts := clusterTestOptions()
	opts.ProxyTimeout = 150 * time.Millisecond
	lc := startCluster(t, 3, opts)
	req, owner := crossNodeRequest(t, lc, 0)

	release := make(chan struct{})
	lc.Servers[owner].jobGate = func() { <-release }
	defer close(release)

	t0 := time.Now()
	resp, body := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with hung owner: %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Proxied {
		t.Error("response claims proxied though the owner hung")
	}
	mustEqualResults(t, "hung owner", rr, standaloneResult(t, req))
	m := lc.Servers[0].Metrics()
	if n := m.Counter("sarad_proxy_retries_total"); n != 1 {
		t.Errorf("proxy retries = %d, want exactly 1 (one-retry-then-local)", n)
	}
	if n := m.Counter("sarad_proxy_failures_total"); n != 1 {
		t.Errorf("proxy failures = %d, want 1", n)
	}
	if n := m.Counter("sarad_compiles_total"); n != 1 {
		t.Errorf("requester compiles = %d, want 1", n)
	}
	// Both attempts were bounded: the whole request took the two timeouts
	// plus one local compile, nowhere near the 120s default request budget.
	if el := time.Since(t0); el > 10*time.Second {
		t.Errorf("hung-owner request took %s; proxy timeout did not bound the hang", el)
	}
}

// TestClusterProxyPersistsToRequesterStore: a proxied artifact lands in the
// requester's local store tier, stage_cache/store stats in the response
// reflect the proxy path accurately, and after the owner dies the design is
// still served locally — from the LRU, and from the store once evicted.
func TestClusterProxyPersistsToRequesterStore(t *testing.T) {
	opts := clusterTestOptions()
	opts.StoreDir = t.TempDir()
	opts.CacheEntries = 1
	lc := startCluster(t, 3, opts)
	req, owner := crossNodeRequest(t, lc, 0)
	key, err := KeyFor(&req)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run: %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if !rr.Proxied {
		t.Fatalf("expected a proxied compile: %s", body)
	}
	if _, ok := lc.Servers[0].store.Get(store.FinalStage, key); !ok {
		t.Error("proxied artifact missing from the requester's store tier")
	}
	// stage_cache through the proxy carries the owner's per-stage flags: a
	// cold owner compile runs every stage, so the map is non-empty and
	// all-false.
	if len(rr.StageCache) == 0 {
		t.Error("proxied response has no stage_cache flags")
	}
	for stage, hit := range rr.StageCache {
		if hit {
			t.Errorf("stage_cache[%s]=true on a cold owner compile", stage)
		}
	}
	if rr.Store == nil || rr.Store.Stages[store.FinalStage].BytesWritten == 0 {
		t.Errorf("requester store stats show no persisted artifact bytes: %+v", rr.Store)
	}

	lc.Kill(owner)

	// Repeat while still cached: a plain local LRU hit.
	resp2, body2 := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat after owner death: %d: %s", resp2.StatusCode, body2)
	}
	rr2 := decodeRun(t, body2)
	if !rr2.CacheHit {
		t.Error("repeat after owner death missed the local cache")
	}

	// Evict it (capacity 1), then repeat: the store tier serves it without
	// recompiling or touching the dead owner.
	evict := RunRequest{Workload: "mlp", Par: 4, Scale: 16, Engine: "cycle"}
	if resp3, body3 := postNode(t, lc.URLs[0], "/v1/run", evict); resp3.StatusCode != http.StatusOK {
		t.Fatalf("evicting request: %d: %s", resp3.StatusCode, body3)
	}
	compiles := lc.Servers[0].Metrics().Counter("sarad_compiles_total")
	resp4, body4 := postNode(t, lc.URLs[0], "/v1/run", req)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("store-tier repeat: %d: %s", resp4.StatusCode, body4)
	}
	rr4 := decodeRun(t, body4)
	if !rr4.StoreHit {
		t.Errorf("evicted design not served from the store tier: %s", body4)
	}
	if got := lc.Servers[0].Metrics().Counter("sarad_compiles_total"); got != compiles {
		t.Errorf("store-tier repeat recompiled (%d -> %d)", compiles, got)
	}
	mustEqualResults(t, "store-tier repeat", rr4, rr)
}

// TestClusterMetricsRendered: the ring/proxy/fallback counters and cluster
// gauges appear in /metrics on both sides of a proxied request.
func TestClusterMetricsRendered(t *testing.T) {
	lc := startCluster(t, 3, clusterTestOptions())
	req, owner := crossNodeRequest(t, lc, 0)
	if resp, body := postNode(t, lc.URLs[0], "/v1/run", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}

	get := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		b := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(b)
			sb.Write(b[:n])
			if rerr != nil {
				break
			}
		}
		return sb.String()
	}
	requester := get(lc.URLs[0])
	for _, metric := range []string{
		"sarad_cluster_nodes 3",
		"sarad_cluster_peers_healthy 2",
		"sarad_ring_owner_remote_total 1",
		"sarad_proxy_attempts_total 1",
		"sarad_proxy_success_total 1",
		"sarad_proxy_seconds_count 1",
		"sarad_proxy_sim_records_total 1",
		"sarad_proxy_sim_records_rejected_total 0",
	} {
		if !strings.Contains(requester, metric+"\n") {
			t.Errorf("requester metrics missing %q", metric)
		}
	}
	ownerText := get(lc.URLs[owner])
	for _, metric := range []string{
		"sarad_artifact_served_total 1",
		"sarad_artifact_sims_total 1",
		"sarad_artifact_sim_budget_exceeded_total 0",
		"sarad_compiles_total 1",
	} {
		if !strings.Contains(ownerText, metric+"\n") {
			t.Errorf("owner metrics missing %q", metric)
		}
	}
}
