package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sara/internal/profile"
	"sara/internal/store"
)

// stdAnswer is what writeJSON answered when it ran every value through
// encoding/json: the status and the body.
func stdAnswer(v any) (int, string) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(&buf).Encode(errorJSON{Error: "encoding response: " + err.Error()}) //nolint:errcheck // a string always encodes
		return http.StatusInternalServerError, buf.String()
	}
	return http.StatusOK, buf.String()
}

// writerAnswer is what writeJSON answers for r now.
func writerAnswer(r *RunResponse) (int, string) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, r)
	return w.Code, w.Body.String()
}

// assertWriterMatches fails unless the writer answers r as encoding/json
// answers want, which is r itself or r's value before a record check.
func assertWriterMatches(t *testing.T, label string, r *RunResponse, want any) {
	t.Helper()
	gs, gb := writerAnswer(r)
	ws, wb := stdAnswer(want)
	if gs != ws || gb != wb {
		t.Fatalf("%s: the writer answers %d %q, encoding/json %d %q", label, gs, gb, ws, wb)
	}
}

// FuzzRunResponseJSON is the byte-identity gate of the one RunResponse
// writer: for arbitrary responses — strings needing escapes or holding
// invalid UTF-8, floats at the format's edges or not finite, nil against
// empty maps, a store snapshot, a profile, any bytes as the result — the
// writer's status and body are encoding/json's, whether the compile half is
// encoded with the response or spliced from a design's stored bytes and
// whether the result is encoded or, once checkSimRecord accepts it, spliced.
// The seed corpus in testdata/fuzz/FuzzRunResponseJSON runs under plain go
// test; explore with
//
//	go test -run '^$' -fuzz FuzzRunResponseJSON -fuzztime 30s ./internal/server/
func FuzzRunResponseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, s1, s2 string, flags byte, f1, f2, f3 float64, n int64, result []byte) {
		r := &RunResponse{
			Program:          s1,
			Arch:             s2,
			CacheKey:         s2 + s1,
			CacheHit:         flags&1 != 0,
			Proxied:          flags&2 != 0,
			StoreHit:         flags&4 != 0,
			SimCached:        flags&8 != 0,
			CompileMS:        f1,
			SimMS:            f2,
			SimCyclesPerSec:  f3,
			MIPNodesExplored: int(n),
			Resources:        ResourcesJSON{PCU: int(n), PMU: 1, AG: -1, Total: int(n >> 3), VUs: 7, TokenStreams: int(n >> 40)},
			Result:           result,
		}
		if r.Proxied {
			r.ProxyOwner = s1
		}
		if flags&16 != 0 {
			r.PhaseMS, r.StageCache = map[string]float64{}, map[string]bool{}
			if flags&1 != 0 {
				r.PhaseMS[s1], r.PhaseMS[s2], r.PhaseMS["place"] = f1, f3, 0
				r.StageCache[s1], r.StageCache[s2] = true, false
			}
		}
		if flags&32 != 0 {
			r.Store = &store.Stats{Dir: s2, SolverHits: n, SolverMiss: -n, MemEntries: 3, DiskBytes: n << 2}
			if flags&1 != 0 {
				r.Store.Stages = map[string]store.StageStats{s1: {Hits: n, BytesRead: 1}, "sim": {Misses: 2}}
			}
		}
		if flags&64 != 0 {
			r.Profile = &profile.ReportJSON{Cycles: n, Units: []profile.UnitReportJSON{{Name: s1, Util: f2}}}
			if flags&1 != 0 {
				r.Profile.StallsByCause = map[string]int64{s2: n}
				r.Profile.CriticalPath = []profile.PathSegmentJSON{{Unit: s2, Share: f3}}
			}
		}
		assertWriterMatches(t, "encoded", r, r)
		if w, err := encodeCompileHalf(r); err == nil {
			spliced := *r
			spliced.wire = w
			assertWriterMatches(t, "compile half spliced", &spliced, r)
		}
		if rec, err := checkSimRecord(result); err == nil {
			checked := *r
			checked.Result, checked.resultChecked = rec, true
			assertWriterMatches(t, "checked record spliced", &checked, r)
		}
	})
}

// TestWriterCoversEveryField: the writer knows RunResponse, ResourcesJSON,
// store.Stats and store.StageStats member by member. A field added to any of
// them must be added to appendRunResponse too; this list is the reminder.
func TestWriterCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{RunResponse{}, "program arch cache_key cache_hit proxied proxy_owner store_hit compile_ms sim_cached sim_ms sim_cycles_per_sec phase_ms mip_nodes_explored stage_cache store resources result profile"},
		{ResourcesJSON{}, "pcu pmu ag total vus token_streams"},
		{store.Stats{}, "dir stages solver_hits solver_misses mem_entries disk_entries disk_bytes"},
		{store.StageStats{}, "hits misses bytes_read bytes_written"},
	} {
		typ := reflect.TypeOf(c.v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			if tag := typ.Field(i).Tag.Get("json"); tag != "" {
				names = append(names, strings.Split(tag, ",")[0])
			}
		}
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("%s members %q, the writer writes %q", typ, got, c.want)
		}
	}
}

// assertBodyIsEncodingJSON fails unless body is encoding/json's encoding of
// the RunResponse it decodes to.
func assertBodyIsEncodingJSON(t *testing.T, label string, body []byte) *RunResponse {
	t.Helper()
	rr := decodeRun(t, body)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rr); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if buf.String() != string(body) {
		t.Errorf("%s: body is not encoding/json's bytes\n got: %s\nwant: %s", label, body, buf.Bytes())
	}
	return rr
}

// TestResponsesAreEncodingJSON drives a response of every kind through real
// servers — a miss, an LRU-and-memo hit answered without the pool, a memo
// hit read from disk after a restart, a store-final serve, a compile proxied
// with and without the owner's record, /v1/compile, a profiled run, the
// analytic model and a solver compile — and holds each body to
// encoding/json's encoding of its own decoded value.
func TestResponsesAreEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	bs := RunRequest{Workload: "bs", Par: 4, Scale: 16}
	gda := RunRequest{Workload: "gda", Par: 4, Scale: 16}
	_, ts := newTestServer(t, Options{Workers: 2, CacheEntries: 1, StoreDir: dir})
	post := func(label, path string, req RunRequest) *RunResponse {
		t.Helper()
		resp, body := postRun(t, ts, path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", label, resp.StatusCode, body)
		}
		return assertBodyIsEncodingJSON(t, label, body)
	}
	if rr := post("miss", "/v1/run", bs); rr.CacheHit || rr.SimCached {
		t.Errorf("miss: cache_hit %v, sim_cached %v", rr.CacheHit, rr.SimCached)
	}
	if rr := post("hit", "/v1/run", bs); !rr.CacheHit || !rr.SimCached {
		t.Errorf("hit: cache_hit %v, sim_cached %v", rr.CacheHit, rr.SimCached)
	}
	post("evicting miss", "/v1/run", gda)
	if rr := post("store-final serve", "/v1/run", bs); !rr.StoreHit || !rr.SimCached {
		t.Errorf("store-final serve: store_hit %v, sim_cached %v", rr.StoreHit, rr.SimCached)
	}
	post("compile", "/v1/compile", gda)
	post("profiled", "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 16, Profile: true})
	post("analytic", "/v1/run", RunRequest{Workload: "bs", Par: 4, Scale: 16, Engine: "analytic"})
	post("solver", "/v1/run", RunRequest{Program: dotProgram(), Options: &CompileOptionsJSON{Solver: true}})
	post("inline program", "/v1/run", RunRequest{Program: dotProgram()})

	// A new process over the same directory: the LRU is warmed from the
	// final tier, the record is only on disk.
	s2, ts2 := newTestServer(t, Options{Workers: 2, StoreDir: dir})
	resp, body := postRun(t, ts2, "/v1/run", bs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart: %d: %s", resp.StatusCode, body)
	}
	if rr := assertBodyIsEncodingJSON(t, "memo hit from disk", body); !rr.CacheHit || !rr.SimCached {
		t.Errorf("memo hit from disk: cache_hit %v, sim_cached %v", rr.CacheHit, rr.SimCached)
	}
	if hits, misses := memoCounters(s2); hits != 1 || misses != 0 {
		t.Errorf("restarted server: %d memo hits / %d misses, want 1 / 0", hits, misses)
	}

	lc := startCluster(t, 2, clusterTestOptions())
	lc.WaitHealthy(5 * time.Second)
	var owned []RunRequest // designs node 0 owns, asked at node 1
	for par := 2; len(owned) < 2; par += 2 {
		req := RunRequest{Workload: "bs", Par: par, Scale: 64}
		key, err := KeyFor(&req)
		if err != nil {
			t.Fatal(err)
		}
		if lc.OwnerIndex(key) == 0 {
			owned = append(owned, req)
		}
	}
	owned[1].Engine = "analytic"
	for i, label := range []string{"proxied with the owner's record", "proxied without a record"} {
		resp, body := postNode(t, lc.URLs[1], "/v1/run", owned[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", label, resp.StatusCode, body)
		}
		if rr := assertBodyIsEncodingJSON(t, label, body); !rr.Proxied {
			t.Errorf("%s: not proxied", label)
		}
		if got := lc.Servers[1].Metrics().Counter("sarad_proxy_sim_records_total"); got != 1 {
			t.Errorf("%s: %d owner records taken, want 1 in all", label, got)
		}
	}
}

// TestWriteJSONContentLength: an answer carries its Content-Length and is
// not chunked — here an LRU-and-memo hit over a real connection.
func TestWriteJSONContentLength(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := RunRequest{Workload: "bs", Par: 4, Scale: 16}
	mustRun(t, ts, req)
	resp, body := postRun(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusOK || !decodeRun(t, body).SimCached {
		t.Fatalf("repeat is not a hit: %d %s", resp.StatusCode, body)
	}
	if got, want := resp.Header.Get("Content-Length"), fmt.Sprint(len(body)); got != want || resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length %q (%d), want %s", got, resp.ContentLength, want)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %v, want none", resp.TransferEncoding)
	}
}
