// Command sarad serves the SARA compile-and-simulate flow over HTTP: POST a
// spatial program (inline JSON or a registered workload name) plus a chip
// spec and compiler options, get back resources and a simulation report.
// Identical requests share one compilation through a content-addressed LRU
// cache; a bounded worker pool sheds load with 429 once saturated; /metrics
// exposes counters and latency histograms.
//
// Cluster mode shards the compile content-address space over a fleet: give
// every node the same membership (-peers or -peers-file) and its own -self
// URL, and a cache-and-store miss on a key another node owns is proxied to
// that owner — each unique design compiles and simulates once cluster-wide
// (the owner ships its result record with the design), and a dead or slow
// peer degrades the requester to standalone behavior (local compile and
// simulation) instead of failing the request.
//
// A request carrying a "tune" member runs the design-space autotuner over a
// registered workload and answers with the full Pareto-front result;
// candidate compiles flow through the same cache/store/cluster hierarchy,
// and -tune-max-points bounds how large a space one request may search.
//
// Usage:
//
//	sarad [-addr :8080] [-workers N] [-queue N] [-cache N] [-timeout 120s]
//	      [-store DIR] [-peers URL,URL,...] [-peers-file FILE] [-self URL]
//	      [-proxy-timeout 15s] [-tune-max-points 512]
//
// Example requests:
//
//	curl -s localhost:8080/v1/workloads
//	curl -s localhost:8080/v1/run -d '{"workload":"bs","par":16,"scale":64,"engine":"analytic"}'
//	curl -s localhost:8080/v1/run -d '{"workload":"ms","scale":16,"tune":{"pars":[16,32,64],"dram_channels":[8,16]}}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sara/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.NumCPU(), "max concurrently executing compile/simulate jobs")
		queue        = flag.Int("queue", 16, "job waiting room beyond the workers (full queue => 429)")
		cache        = flag.Int("cache", 64, "compiled designs kept in the content-addressed LRU cache")
		timeout      = flag.Duration("timeout", 120*time.Second, "default and maximum per-request timeout")
		drain        = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		storeDir     = flag.String("store", "", "persistent design-store directory: compiled designs and per-stage intermediates are content-addressed there, survive restarts, and warm the cache at startup (empty = memory-only)")
		peers        = flag.String("peers", "", "comma-separated base URLs of the cluster members (same list on every node); empty = standalone")
		peersFile    = flag.String("peers-file", "", "file listing one peer base URL per line (# comments allowed); merged with -peers")
		self         = flag.String("self", "", "this node's base URL exactly as it appears in the membership (default: http://localhost<addr> when -addr starts with ':')")
		proxyTimeout = flag.Duration("proxy-timeout", 15*time.Second, "per-attempt bound on proxied artifact fetches (one retry, then local compile)")
		tuneMax      = flag.Int("tune-max-points", 512, "largest design space a single tune request may enumerate")
	)
	flag.Parse()

	peerList, selfURL, err := clusterMembership(*peers, *peersFile, *self, *addr)
	if err != nil {
		log.Fatalf("sarad: %v", err)
	}

	svc := server.New(server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		StoreDir:       *storeDir,
		Peers:          peerList,
		SelfURL:        selfURL,
		ProxyTimeout:   *proxyTimeout,
		TuneMaxPoints:  *tuneMax,
	})
	if err := svc.StoreError(); err != nil {
		log.Printf("sarad: design store disabled, running memory-only: %v", err)
	} else if *storeDir != "" {
		log.Printf("sarad: design store at %s", *storeDir)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("sarad: listening on %s (%d workers, queue %d, cache %d)", *addr, *workers, *queue, *cache)
	if len(peerList) > 0 {
		log.Printf("sarad: cluster mode as %s with %d peer(s)", selfURL, len(peerList))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("sarad: %s, draining for up to %s", sig, *drain)
	case err := <-errc:
		log.Fatalf("sarad: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("sarad: http shutdown: %v", err)
	}
	if err := svc.Close(ctx); err != nil {
		log.Printf("sarad: job drain: %v", err)
	}
	log.Print("sarad: bye")
}

// clusterMembership resolves the cluster flags: -peers and -peers-file are
// merged and deduplicated, and -self defaults to http://localhost:PORT when
// -addr is of the ":PORT" form. Ring ownership is keyed on the literal URL
// strings, so selfURL must match this node's entry in the other nodes'
// lists byte-for-byte.
func clusterMembership(peers, peersFile, self, addr string) ([]string, string, error) {
	var list []string
	seen := map[string]bool{}
	add := func(raw string) {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" || seen[u] {
			return
		}
		seen[u] = true
		list = append(list, u)
	}
	for _, p := range strings.Split(peers, ",") {
		add(p)
	}
	if peersFile != "" {
		data, err := os.ReadFile(peersFile)
		if err != nil {
			return nil, "", fmt.Errorf("reading -peers-file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			add(line)
		}
	}
	if len(list) == 0 {
		return nil, "", nil // standalone
	}
	selfURL := strings.TrimRight(strings.TrimSpace(self), "/")
	if selfURL == "" {
		if !strings.HasPrefix(addr, ":") {
			return nil, "", errors.New("cluster mode needs -self when -addr is not of the \":port\" form")
		}
		selfURL = "http://localhost" + addr
	}
	if !seen[selfURL] {
		return nil, "", fmt.Errorf("self URL %s is not in the peer list %v; every node must appear in the shared membership", selfURL, list)
	}
	return list, selfURL, nil
}
