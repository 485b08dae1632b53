package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"
)

// LocalCluster is an in-process sarad cluster: n Servers on 127.0.0.1
// ephemeral ports wired into one consistent-hash ring. The cluster
// correctness suite and the serve workloads of `go run ./bench` build on it;
// it uses real TCP listeners so the proxy path, health probes, and failure
// modes are exactly what a multi-host deployment sees.
type LocalCluster struct {
	Servers []*Server
	URLs    []string
	https   []*http.Server
	killed  []bool
}

// StartLocalCluster boots n nodes sharing base's options. Per-node fields
// are derived: each node's SelfURL/Peers come from the allocated listener
// addresses, and a non-empty base.StoreDir becomes per-node subdirectories
// (node0, node1, ...) so the nodes do not share a store tier.
func StartLocalCluster(n int, base Options) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster size %d < 1", n)
	}
	lc := &LocalCluster{killed: make([]bool, n)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		lc.URLs = append(lc.URLs, "http://"+ln.Addr().String())
	}
	for i := range lns {
		opts := base
		opts.Peers = lc.URLs
		opts.SelfURL = lc.URLs[i]
		if base.StoreDir != "" {
			opts.StoreDir = filepath.Join(base.StoreDir, fmt.Sprintf("node%d", i))
		}
		srv := New(opts)
		hs := &http.Server{Handler: srv.Handler()}
		lc.Servers = append(lc.Servers, srv)
		lc.https = append(lc.https, hs)
		go hs.Serve(lns[i]) //nolint:errcheck // Serve returns on Close/Shutdown
	}
	return lc, nil
}

func (lc *LocalCluster) closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// Kill abruptly takes node i off the network: the listener and every active
// connection close immediately, so in-flight proxy calls against it fail
// mid-request — the fault the fallback path must absorb. The Server's
// worker pool keeps draining whatever it already accepted.
func (lc *LocalCluster) Kill(i int) {
	if lc.killed[i] {
		return
	}
	lc.killed[i] = true
	lc.https[i].Close()
}

// Close gracefully shuts down every surviving node and drains their pools.
func (lc *LocalCluster) Close(ctx context.Context) error {
	var firstErr error
	for i, hs := range lc.https {
		if lc.killed[i] {
			continue
		}
		if err := hs.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range lc.Servers {
		if err := s.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OwnerIndex returns the index of the node owning key.
func (lc *LocalCluster) OwnerIndex(key string) int {
	owner := lc.Servers[0].cluster.ring.Owner(key)
	for i, url := range lc.URLs {
		if url == owner {
			return i
		}
	}
	return -1
}

// KeyFor exposes the canonical content address a cluster node computes for
// req; load generators and tests use it to steer requests at (or away from)
// their owners.
func KeyFor(req *RunRequest) (string, error) {
	r := *req
	if err := r.normalize(); err != nil {
		return "", err
	}
	return cacheKey(&r)
}

// WaitHealthy blocks until every node considers all its live peers healthy
// or the timeout passes; benchmarks call it so startup probe jitter does
// not pollute latency measurements.
func (lc *LocalCluster) WaitHealthy(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for i, s := range lc.Servers {
			if lc.killed[i] {
				continue
			}
			if s.cluster.healthyPeers() < len(s.cluster.peers) {
				ok = false
			}
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
