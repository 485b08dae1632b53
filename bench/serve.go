package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"sara/internal/server"
)

const (
	serveNodes   = 2
	serveClients = 2
	// serveStretches is how many stretches a pass's list is sent in; the host
	// meter reads between two stretches. Six, on serve-sweep, doubled the
	// ten-run spread of pass_s and sim_s (README.md).
	serveStretches = 12
)

// runResponse is the part of a /v1/run response body the benchmark reads.
type runResponse struct {
	CacheHit  bool    `json:"cache_hit"`
	CompileMS float64 `json:"compile_ms"`
	SimMS     float64 `json:"sim_ms"`
	Resources struct {
		Total int `json:"total"`
	} `json:"resources"`
	Result *struct {
		Engine     string           `json:"engine"`
		Cycles     int64            `json:"cycles"`
		FiredTotal int64            `json:"fired_total"`
		Stalls     map[string]int64 `json:"stalls"`
		DRAM       *struct {
			TotalBytes  int64 `json:"total_bytes"`
			StallCycles int64 `json:"stall_cycles"`
		} `json:"dram"`
	} `json:"result"`
}

// serveBench drives a workload through an in-process sarad cluster over real
// TCP. Every pass boots a fresh cluster on fresh store directories, so each
// pass sees the same cold-to-warm history.
type serveBench struct {
	list   opList
	outDir string
	reqs   []server.RunRequest // per design
	bodies [][]byte            // per design, the request as sent
	keys   []string            // per design, its content address
	expect []outcome           // per design, from the direct API
}

func newServeBench(list opList, outDir string) *serveBench {
	return &serveBench{list: list, outDir: outDir}
}

// setup generates the requests and computes, through the direct API, the
// cycles and physical units every served response is held to: served ≡
// direct (and, the server compiling through its store, incremental ≡ cold).
// Serve workloads use traversal options only — "solver": true on the wire
// cannot cap the search by nodes, so its result would depend on host load.
func (b *serveBench) setup(p *passResult) {
	for _, d := range b.list.Designs {
		req := server.RunRequest{Workload: d.Workload, Par: d.Par, Scale: d.Scale}
		body, err := json.Marshal(&req)
		if err != nil {
			p.fail("%s: %v", d, err)
		}
		key, err := server.KeyFor(&req)
		if err != nil {
			p.fail("%s: %v", d, err)
		}
		var want outcome
		if c, res, _, _, err := compileAndSimulate(d, compileConfig(false)); err != nil {
			p.fail("%s: direct reference: %v", d, err)
		} else {
			want = outcome{res.Cycles, c.Resources().Total}
		}
		b.reqs = append(b.reqs, req)
		b.bodies = append(b.bodies, body)
		b.keys = append(b.keys, key)
		b.expect = append(b.expect, want)
	}
}

// client is one closed-loop load generator with a keep-alive connection to
// each node.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape sums every unlabelled series of the nodes' /metrics registries:
// counters, store gauges and histogram _sum/_count lines.
func scrape(lc *server.LocalCluster) map[string]float64 {
	out := map[string]float64{}
	for _, s := range lc.Servers {
		var buf bytes.Buffer
		s.Metrics().Render(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// counterLayers maps server/store layer metrics to the /metrics series (or
// series prefix, summed over stages) whose delta over the timed list they are.
var counterLayers = map[string]string{
	"server.cache_hits":           "sarad_cache_hits_total",
	"server.cache_misses":         "sarad_cache_misses_total",
	"server.compiles":             "sarad_compiles_total",
	"server.store_final_serves":   "sarad_store_final_serves_total",
	"server.proxy_success":        "sarad_proxy_success_total",
	"server.proxy_fallback_local": "sarad_proxy_fallback_local_total",
	"server.proxy_s":              "sarad_proxy_seconds_sum",
	"server.rejected":             "sarad_rejected_total",
	"server.timeouts":             "sarad_timeouts_total",
	"store.stage_hits":            "sarad_store_stage_hits_*",
	"store.stage_misses":          "sarad_store_stage_misses_*",
	"store.bytes_written":         "sarad_store_stage_bytes_written_*",
	"store.bytes_read":            "sarad_store_stage_bytes_read_*",
}

func counterDeltas(L map[string]float64, before, after map[string]float64) {
	for layer, series := range counterLayers {
		prefix, wild := strings.CutSuffix(series, "*")
		for name, v := range after {
			if name == series || (wild && strings.HasPrefix(name, prefix)) {
				L[layer] += v - before[name]
			}
		}
	}
}

func (b *serveBench) pass(tr *tracer) *passResult {
	n := len(b.list.Ops)
	// Host stays 1 if the pass fails before it gets to measure anything.
	p := &passResult{Host: 1, Layers: map[string]float64{}, Ops: make([]opSample, n)}
	defer p.normalise()
	dir, err := os.MkdirTemp(b.outDir, "store-")
	if err != nil {
		p.fail("store dir: %v", err)
		return p
	}
	defer os.RemoveAll(dir)
	lc, err := server.StartLocalCluster(serveNodes, server.Options{
		Workers:      serveClients,
		QueueDepth:   64,
		CacheEntries: b.list.LRU,
		StoreDir:     dir,
		ProxyTimeout: 60 * time.Second,
	})
	if err != nil {
		p.fail("cluster: %v", err)
		return p
	}
	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = newClient()
	}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := lc.Close(ctx); err != nil {
			p.fail("cluster close: %v", err)
		}
	}()
	lc.WaitHealthy(5 * time.Second)

	for _, d := range b.list.Prime {
		for _, url := range lc.URLs {
			if code, _, err := clients[0].post(url, b.bodies[d]); err != nil || code != http.StatusOK {
				p.fail("prime %s: status %d, err %v", b.list.Designs[d], code, err)
			}
		}
	}
	// Ring ownership hashes the literal node URLs and the ports are
	// ephemeral, so it is looked up afresh each pass; the op list fixes only
	// owner / non-owner, which keeps the proxied count exact across runs.
	owner := make([]int, len(b.keys))
	for d, key := range b.keys {
		if owner[d] = lc.OwnerIndex(key); owner[d] < 0 {
			p.fail("%s: no ring owner", b.list.Designs[d])
			return p
		}
	}

	type sample struct {
		dur, handler, key time.Duration
		code              int
		err               error
		body, replay      []byte
	}
	samples := make([]sample, n)
	// A traced pass replays every stride-th op in-process, two dozen in all: a
	// replay costs a simulation, on a box whose two cores the clients already
	// keep busy. The server.* span sums cover the replayed ops only, so
	// request, handler and transport stay comparable.
	stride := max(1, n/24)
	before := scrape(lc)
	mark := memMark()

	// One shared queue, two closed-loop clients: an op starts as soon as a
	// client is free, so the split of work between the clients does not
	// depend on which node owns which design, nor on the seed's order.
	work := make(chan int)
	var wg, stretch sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range work {
				o := b.list.Ops[i]
				node := owner[o.Design]
				if !o.ToOwner {
					node = 1 - node
				}
				s := &samples[i]
				if tr == nil {
					s0 := time.Now()
					s.code, s.body, s.err = clients[c].post(lc.URLs[node], b.bodies[o.Design])
					s.dur = time.Since(s0)
					stretch.Done()
					continue
				}
				root := tr.begin(0, i, "op "+b.list.Designs[o.Design].String())
				s.dur = tr.do(root, i, "client POST /v1/run", func() {
					s.code, s.body, s.err = clients[c].post(lc.URLs[node], b.bodies[o.Design])
				})
				if i%stride == 0 {
					s.key = tr.do(root, i, "server.KeyFor", func() {
						server.KeyFor(&b.reqs[o.Design]) //nolint:errcheck // checked in setup
					})
					// The same request again, in-process: no TCP, and by
					// now always an LRU hit on this node.
					s.handler = tr.do(root, i, "server.Handler.ServeHTTP", func() {
						rec := httptest.NewRecorder()
						req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(b.bodies[o.Design]))
						lc.Servers[node].Handler().ServeHTTP(rec, req)
						s.replay = rec.Body.Bytes()
					})
				}
				tr.end(root)
				stretch.Done()
			}
		}(c)
	}
	// The host moves within a pass, and a reading taken while the clients
	// keep both cores busy would measure them, not the host. So the list is
	// sent in stretches, and between two, once both clients have drained, the
	// host meter reads the reference kernel.
	var host hostMeter
	reads := perGap(b.list.HostReadings, serveStretches+1)
	host.read(reads)
	for k := 0; k < serveStretches; k++ {
		lo, hi := k*n/serveStretches, (k+1)*n/serveStretches
		stretch.Add(hi - lo)
		for i := lo; i < hi; i++ {
			work <- i
		}
		stretch.Wait()
		host.read(reads)
	}
	close(work)
	wg.Wait()

	p.AllocMB = allocMBSince(mark)
	p.Host = host.mean() / kernelNominalS
	if tr == nil {
		// A traced pass's in-process replays would count as cache hits.
		counterDeltas(p.Layers, before, scrape(lc))
	}

	L := p.Layers
	for i, s := range samples {
		o := b.list.Ops[i]
		d := b.list.Designs[o.Design]
		p.Ops[i].Dur = s.dur.Seconds()
		// The pass's wall time with the meter's pauses taken out: what a
		// client idles while the other finishes a stretch is the meter's
		// doing, so a pass lasts as long as its clients were busy, on average.
		p.Wall += s.dur / serveClients
		var r runResponse
		if s.err != nil || s.code != http.StatusOK {
			p.fail("%s: status %d, err %v: %s", d, s.code, s.err, oneLine(s.body))
			continue
		}
		if err := json.Unmarshal(s.body, &r); err != nil || r.Result == nil {
			p.fail("%s: undecodable response: %v", d, err)
			continue
		}
		got := outcome{r.Result.Cycles, r.Resources.Total}
		p.Cycles += got.Cycles
		p.PUs += got.PUs
		if got != b.expect[o.Design] {
			p.fail("%s: served cycles/pus %v, direct %v", d, got, b.expect[o.Design])
		}
		p.Ops[i].Compile = r.CompileMS / 1e3
		p.Ops[i].Sim = r.SimMS / 1e3
		var dramBytes, dramStall int64
		if r.Result.DRAM != nil {
			dramBytes, dramStall = r.Result.DRAM.TotalBytes, r.Result.DRAM.StallCycles
		}
		addSimLayers(L, r.Result.Engine, r.Result.Cycles, r.Result.FiredTotal, r.Result.Stalls, dramBytes, dramStall)
		if tr == nil {
			continue
		}
		spans := map[string]float64{"sim.busy_s": r.SimMS / 1e3}
		p.Ops[i].Spans = spans
		if i%stride != 0 {
			continue
		}
		var rr runResponse
		if err := json.Unmarshal(s.replay, &rr); err != nil || rr.Result == nil || !rr.CacheHit {
			p.fail("%s: in-process replay was not a cache hit: %s", d, oneLine(s.replay))
			continue
		}
		L["server.response_bytes"] += float64(len(s.body))
		spans["server.request_s"] = s.dur.Seconds()
		spans["server.handler_s"] = s.handler.Seconds()
		spans["server.key_s"] = s.key.Seconds()
		spans["replay.compile_s"] = rr.CompileMS / 1e3
		spans["replay.sim_s"] = rr.SimMS / 1e3
		if r.CacheHit {
			// Only an LRU hit does the same work as its in-process replay.
			spans["server.transport_s"] = (s.dur - s.handler).Seconds()
		}
	}
	return p
}

// oneLine squeezes a response body into a short single-line quote for an
// error message.
func oneLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 200 {
		s = s[:200]
	}
	return fmt.Sprintf("%q", s)
}
