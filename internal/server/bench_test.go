package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// warmHit returns a function that posts one /v1/run of workload (par 16,
// scale 16) through s.Handler().ServeHTTP, no sockets, after checking that
// the request is already answered from memory: an LRU hit for the design and
// a memo hit for the result.
func warmHit(tb testing.TB, s *Server, workload string) func() *httptest.ResponseRecorder {
	tb.Helper()
	body, err := json.Marshal(&RunRequest{Workload: workload, Par: 16, Scale: 16})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	post() // compile and simulate once
	var rr RunResponse
	if err := json.Unmarshal(post().Body.Bytes(), &rr); err != nil || !rr.CacheHit || !rr.SimCached {
		tb.Fatalf("warm request is not a hit on both tiers (err %v): %+v", err, rr)
	}
	return post
}

// BenchmarkRunHit times one /v1/run answered entirely from memory — LRU hit
// for the design, memo hit for the result — through Handler().ServeHTTP, no
// sockets. What is left is the hit path itself: decode, canonicalise and
// hash, the LRU and memory-tier lookups in the handler goroutine (no pool
// hop), store.Stats(), and the writer appending the per-request members
// between the design's stored compile half and the stored result, spliced
// as they are. It is that path's profiling entry point:
//
//	go test -run '^$' -bench RunHit -benchmem -cpuprofile cpu.out ./internal/server/
func BenchmarkRunHit(b *testing.B) {
	for _, name := range []string{"bs", "rf"} {
		name := name
		b.Run(name, func(b *testing.B) {
			s := New(Options{Workers: 2})
			defer s.Close(context.Background()) //nolint:errcheck // nothing in flight
			post := warmHit(b, s, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

// maxHitAllocs bounds the allocations of one warm hit. Decoding the memo
// record and re-encoding it with an indent cost about 228; splicing the record
// as it is and answering compact JSON, about 113; appending the response
// instead of reflecting it, with the compile half encoded once per design and
// no pool hop, 49. What remains is mostly the request decode, the key hashes,
// the store snapshot and httptest's own request and recorder.
const maxHitAllocs = 56

// TestRunHitAllocs is BenchmarkRunHit's gate: a warm LRU-and-memo hit stays
// under maxHitAllocs allocations. The race detector adds its own, so it is
// skipped there.
func TestRunHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := New(Options{Workers: 2})
	defer s.Close(context.Background()) //nolint:errcheck // nothing in flight
	post := warmHit(t, s, "bs")
	if n := testing.AllocsPerRun(200, func() { post() }); n > maxHitAllocs {
		t.Errorf("a warm hit allocates %.0f times, want at most %d", n, maxHitAllocs)
	}
}

// BenchmarkRunProxied times a design's first /v1/run at the node of a 2-node
// in-process cluster that does not own it: LRU and store miss, the
// /v1/artifact hop to the owner over loopback TCP, the artifact and the
// simulation record decoded, checked and stored, and the answer built from
// the owner's record. The owner already holds design and record (warmed
// before the timer starts), so the hop is what is timed, not a compile or a
// simulation; solver_workers, which a traversal compile never reads, gives
// each iteration a fresh content address for the same design. Profile with
//
//	go test -run '^$' -bench RunProxied -benchmem -cpuprofile cpu.out ./internal/server/
func BenchmarkRunProxied(b *testing.B) {
	lc, err := StartLocalCluster(2, Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		lc.Close(ctx) //nolint:errcheck // nothing in flight
	}()
	lc.WaitHealthy(5 * time.Second)
	post := func(url string, body []byte) {
		resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d (err %v): %s", resp.StatusCode, err, out)
		}
	}
	// Warmed in batches the owner's LRU (64 designs) and its memory-only
	// store (1024 entries, about ten a design) both still hold when asked.
	const batch = 32
	type ask struct {
		url  string
		body []byte
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		var asks []ask
		for ; i < b.N && len(asks) < batch; i++ {
			req := RunRequest{Workload: "bs", Par: 16, Scale: 16, Options: &CompileOptionsJSON{SolverWorkers: i + 1}}
			body, err := json.Marshal(&req)
			if err != nil {
				b.Fatal(err)
			}
			key, err := KeyFor(&req)
			if err != nil {
				b.Fatal(err)
			}
			owner := lc.OwnerIndex(key)
			post(lc.URLs[owner], body) // compile and simulate on the owner
			asks = append(asks, ask{lc.URLs[1-owner], body})
		}
		b.StartTimer()
		for _, a := range asks {
			post(a.url, a.body)
		}
	}
	b.StopTimer()
	var records int64
	for _, s := range lc.Servers {
		records += s.Metrics().Counter("sarad_proxy_sim_records_total")
	}
	if records != int64(b.N) {
		b.Fatalf("%d of %d requests took the owner's record", records, b.N)
	}
}
