package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkRunHit times one /v1/run answered entirely from memory — LRU hit
// for the design, memo hit for the result — through Handler().ServeHTTP, no
// sockets. What is left is the hit path itself: decode, canonicalise and
// hash, the pool hop, store.Stats(), the result's wire conversion and the
// indented encode. It is that path's profiling entry point:
//
//	go test -run '^$' -bench RunHit -benchmem -cpuprofile cpu.out ./internal/server/
func BenchmarkRunHit(b *testing.B) {
	for _, name := range []string{"bs", "rf"} { // auto resolves to dense and to event
		name := name
		b.Run(name, func(b *testing.B) {
			s := New(Options{Workers: 2})
			defer s.Close(context.Background()) //nolint:errcheck // nothing in flight
			body, err := json.Marshal(&RunRequest{Workload: name, Par: 16, Scale: 16})
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			post := func() *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body)
				}
				return w
			}
			post() // compile and simulate once
			var rr RunResponse
			if err := json.Unmarshal(post().Body.Bytes(), &rr); err != nil || !rr.CacheHit || !rr.SimCached {
				b.Fatalf("warm request is not a hit on both tiers (err %v): %+v", err, rr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
