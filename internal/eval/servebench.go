package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sara/internal/server"
)

// ServeBenchOptions configures the serving-layer load generator
// (cmd/sarabench -mode serve → BENCH_serve.json).
type ServeBenchOptions struct {
	// Nodes is the in-process cluster size (default 3).
	Nodes int
	// Clients is the number of concurrent load-generator goroutines
	// (default 8).
	Clients int
	// Smoke shrinks every mix to a few requests: a `make ci` bit-rot check,
	// not a timing run.
	Smoke bool
}

// ServeMixRow is one request mix's measurement: client-observed latency
// percentiles and throughput, plus the cluster-wide compile/cache/proxy
// accounting deltas over the timed window.
type ServeMixRow struct {
	Mix      string `json:"mix"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// P50MS/P99MS are client-observed request latencies over the timed
	// window; RPS is completed requests over wall time.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	RPS   float64 `json:"rps"`
	// UniqueCompiles counts actual compilations across all nodes during the
	// window — the cluster's single-flight and cache layers make this the
	// number of unique designs that were not already resident, regardless
	// of request count or fan-out.
	UniqueCompiles int64 `json:"unique_compiles"`
	// Proxied counts artifact fetches answered by a peer; CacheHits counts
	// local LRU hits; StoreServes counts final artifacts served from a
	// node's persistent store tier.
	Proxied     int64 `json:"proxied"`
	CacheHits   int64 `json:"cache_hits"`
	StoreServes int64 `json:"store_serves"`
}

// ServeBenchReport is the BENCH_serve.json document.
type ServeBenchReport struct {
	Meta    BenchMeta     `json:"meta"`
	Nodes   int           `json:"nodes"`
	Clients int           `json:"clients"`
	Rows    []ServeMixRow `json:"rows"`
}

// serveMix is one named request sequence. Warm requests are issued
// synchronously before the timed window (e.g. populating the cache the
// "hot" mix then hammers); timed requests are replayed by the client pool.
type serveMix struct {
	name  string
	warm  []server.RunRequest
	timed []server.RunRequest
}

// buildServeMixes assembles the BENCH_serve.json request mixes. Scales are
// distinct per mix so content addresses never collide across mixes and each
// row's unique-compile count stays interpretable.
func buildServeMixes(smoke bool) []serveMix {
	n := func(full, tiny int) int {
		if smoke {
			return tiny
		}
		return full
	}

	hotDesign := server.RunRequest{Workload: "bs", Par: 4, Scale: 64, Engine: "cycle"}
	hot := serveMix{name: "hot-cache", warm: []server.RunRequest{hotDesign}}
	for i := 0; i < n(300, 12); i++ {
		hot.timed = append(hot.timed, hotDesign)
	}

	cold := serveMix{name: "cold-cache"}
	for i := 0; i < n(16, 3); i++ {
		cold.timed = append(cold.timed,
			server.RunRequest{Workload: "bs", Par: 2 + 2*i, Scale: 96, Engine: "cycle"},
			server.RunRequest{Workload: "mlp", Par: 2 + 2*i, Scale: 96, Engine: "cycle"})
	}

	profDesign := server.RunRequest{Workload: "mlp", Par: 8, Scale: 40, Engine: "cycle"}
	prof := serveMix{name: "profile-toggle"}
	for i := 0; i < n(40, 4); i++ {
		r := profDesign
		r.Profile = i%2 == 1
		prof.timed = append(prof.timed, r)
	}

	incr := serveMix{name: "incremental-recompile"}
	for i := 0; i < n(10, 3); i++ {
		incr.timed = append(incr.timed,
			server.RunRequest{Workload: "ms", Par: 2 + 2*i, Scale: 48, Engine: "cycle"})
	}

	return []serveMix{hot, cold, prof, incr}
}

// clusterCounters sums one named counter across all nodes.
func clusterCounters(lc *server.LocalCluster, name string) int64 {
	var total int64
	for _, s := range lc.Servers {
		total += s.Metrics().Counter(name)
	}
	return total
}

// ServeBench boots an in-process sarad cluster (persistent stores in a
// scratch directory, removed afterwards), replays each request mix through
// a bounded client pool, and reports latency percentiles, throughput, and
// cluster-wide compile accounting per mix.
func ServeBench(opts ServeBenchOptions) (*ServeBenchReport, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	storeDir, err := os.MkdirTemp("", "sara-servebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	lc, err := server.StartLocalCluster(opts.Nodes, server.Options{
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     256,
		CacheEntries:   512,
		StoreDir:       storeDir,
		HealthInterval: 500 * time.Millisecond,
		ProxyTimeout:   60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		lc.Close(ctx) //nolint:errcheck // benchmark teardown
	}()
	lc.WaitHealthy(5 * time.Second)

	client := &http.Client{}
	post := func(node int, req server.RunRequest) (int, error) {
		body, err := json.Marshal(&req)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(lc.URLs[node%len(lc.URLs)]+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return resp.StatusCode, nil
	}

	mixes := buildServeMixes(opts.Smoke)
	var mixWorkloads []string
	for _, mix := range mixes {
		for _, r := range mix.warm {
			mixWorkloads = append(mixWorkloads, r.Workload)
		}
		for _, r := range mix.timed {
			mixWorkloads = append(mixWorkloads, r.Workload)
		}
	}
	report := &ServeBenchReport{Meta: NewBenchMeta(mixWorkloads...), Nodes: opts.Nodes, Clients: opts.Clients}
	for _, mix := range mixes {
		for i, w := range mix.warm {
			if code, err := post(i, w); err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("%s: warm request %d failed (status %d, err %v)", mix.name, i, code, err)
			}
		}

		before := map[string]int64{}
		for _, c := range serveBenchCounters {
			before[c] = clusterCounters(lc, c)
		}

		latencies := make([]time.Duration, len(mix.timed))
		errs := make([]error, len(mix.timed))
		codes := make([]int, len(mix.timed))
		work := make(chan int)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					s0 := time.Now()
					codes[i], errs[i] = post(i, mix.timed[i])
					latencies[i] = time.Since(s0)
				}
			}()
		}
		for i := range mix.timed {
			work <- i
		}
		close(work)
		wg.Wait()
		wall := time.Since(t0)

		row := ServeMixRow{Mix: mix.name, Requests: len(mix.timed)}
		var ok []time.Duration
		for i := range mix.timed {
			if errs[i] != nil || codes[i] != http.StatusOK {
				row.Errors++
				continue
			}
			ok = append(ok, latencies[i])
		}
		sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
		if len(ok) > 0 {
			row.P50MS = float64(ok[len(ok)/2].Microseconds()) / 1e3
			p99 := (99*len(ok) + 99) / 100
			if p99 > len(ok) {
				p99 = len(ok)
			}
			row.P99MS = float64(ok[p99-1].Microseconds()) / 1e3
			row.RPS = float64(len(ok)) / wall.Seconds()
		}
		row.UniqueCompiles = clusterCounters(lc, "sarad_compiles_total") - before["sarad_compiles_total"]
		row.Proxied = clusterCounters(lc, "sarad_proxy_success_total") - before["sarad_proxy_success_total"]
		row.CacheHits = clusterCounters(lc, "sarad_cache_hits_total") - before["sarad_cache_hits_total"]
		row.StoreServes = clusterCounters(lc, "sarad_store_final_serves_total") - before["sarad_store_final_serves_total"]
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

var serveBenchCounters = []string{
	"sarad_compiles_total",
	"sarad_proxy_success_total",
	"sarad_cache_hits_total",
	"sarad_store_final_serves_total",
}
