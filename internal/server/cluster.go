package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// cluster is the distributed half of a Server: a static consistent-hash
// ring over the peer list, a proxy client that forwards cache-and-store
// misses to the key's owner, and a background health prober. Failure
// semantics are deliberately simple — ownership never moves when a peer
// dies; the requester just compiles locally, so the worst case for any
// request is standalone-sarad behavior plus one bounded proxy round trip.
type cluster struct {
	self           string
	ring           *Ring
	peers          []*peer // every member except self, ring order
	byURL          map[string]*peer
	client         *http.Client
	proxyTimeout   time.Duration
	healthInterval time.Duration
	metrics        *Metrics

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// peer is one remote cluster member and its last known health.
type peer struct {
	url string

	mu      sync.Mutex
	healthy bool
	lastErr error
}

func (p *peer) isHealthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

func (p *peer) setHealth(healthy bool, err error) {
	p.mu.Lock()
	p.healthy, p.lastErr = healthy, err
	p.mu.Unlock()
}

// newCluster wires a cluster from Options (already defaulted). SelfURL is
// always treated as a member even if absent from Peers, so every node's
// ring covers the same membership as long as the peer lists agree.
func newCluster(opts Options, m *Metrics) *cluster {
	members := append(append([]string(nil), opts.Peers...), opts.SelfURL)
	c := &cluster{
		self:           opts.SelfURL,
		ring:           NewRing(members...),
		byURL:          map[string]*peer{},
		client:         &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		proxyTimeout:   opts.ProxyTimeout,
		healthInterval: opts.HealthInterval,
		metrics:        m,
		stopc:          make(chan struct{}),
	}
	for _, node := range c.ring.Nodes() {
		if node == c.self {
			continue
		}
		// Peers start healthy: the first real proxy finds out the truth, and
		// an optimistic miss costs one bounded round trip before the local
		// fallback.
		p := &peer{url: node, healthy: true}
		c.peers = append(c.peers, p)
		c.byURL[node] = p
	}
	return c
}

// start registers the cluster gauges and the simulation-record funnel, which
// render from the start, zeros included, and launches the health prober —
// when the ring has a peer. A node alone owns every key and renders none of
// them.
func (c *cluster) start() {
	if len(c.peers) == 0 {
		return
	}
	c.metrics.Gauge("sarad_cluster_nodes", func() int64 { return int64(len(c.ring.Nodes())) })
	c.metrics.Gauge("sarad_cluster_peers_healthy", func() int64 { return int64(c.healthyPeers()) })
	for _, name := range []string{
		"sarad_artifact_sims_total", "sarad_artifact_sim_budget_exceeded_total",
		"sarad_proxy_sim_records_total", "sarad_proxy_sim_records_rejected_total",
	} {
		c.metrics.Add(name, 0)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.healthInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// stop terminates the health prober and waits for it.
func (c *cluster) stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.wg.Wait()
}

// probeAll pings every peer's /healthz once, concurrently.
func (c *cluster) probeAll() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.probe(p)
		}()
	}
	wg.Wait()
}

func (c *cluster) probe(p *peer) {
	ctx, cancel := context.WithTimeout(context.Background(), c.proxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		p.setHealth(false, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		p.setHealth(false, err)
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.setHealth(false, fmt.Errorf("healthz status %d", resp.StatusCode))
		return
	}
	p.setHealth(true, nil)
}

// healthyPeers counts peers currently believed healthy.
func (c *cluster) healthyPeers() int {
	n := 0
	for _, p := range c.peers {
		if p.isHealthy() {
			n++
		}
	}
	return n
}

// route returns the ring owner of key and whether that owner is this node.
// A ring without peers owns every key here and counts no routing.
func (c *cluster) route(key string) (owner string, local bool) {
	if len(c.peers) == 0 {
		return c.self, true
	}
	owner = c.ring.Owner(key)
	if owner == c.self {
		c.metrics.Add("sarad_ring_owner_local_total", 1)
		return owner, true
	}
	c.metrics.Add("sarad_ring_owner_remote_total", 1)
	return owner, false
}

// simHeader on a /v1/artifact request says the requester is about to run a
// memoised simulation of the design and takes the owner's result record.
const simHeader = "X-Sara-Sim"

// artifactEnvelope is the /v1/artifact wire format: the owner's encoded
// final artifact (the same store codec bytes it persists locally) plus the
// compile bookkeeping the requester surfaces in its own /v1/run response.
type artifactEnvelope struct {
	Key        string          `json:"key"`
	CacheHit   bool            `json:"cache_hit"`
	StageCache map[string]bool `json:"stage_cache,omitempty"`
	// Artifact is store.EncodeArtifact output (base64 on the wire).
	Artifact []byte `json:"artifact"`

	// The simulation record, when the request carried simHeader and the
	// owner had or finished it within its wait budget: SimKey is the memo key
	// the owner stored SimRecord under — the wire result, compact
	// sim.ResultJSON bytes from encodeResult, which the requester stores and
	// splices into its response unchanged — SimNS its simulation wall time
	// for this request, SimRan whether it ran the engine for this request or
	// already had the record.
	SimKey    string        `json:"sim_key,omitempty"`
	SimRecord []byte        `json:"sim_record,omitempty"`
	SimNS     time.Duration `json:"sim_ns,omitempty"`
	SimRan    bool          `json:"sim_ran,omitempty"`
}

// fetchArtifact asks owner to compile req's design and ship the artifact
// back — with askSim, its simulation record too. Each attempt is bounded by
// the proxy timeout; one retry covers a transient failure, and a second
// failure marks the peer unhealthy so subsequent requests skip straight to
// the local fallback until the prober sees it recover. A peer already marked
// unhealthy is not contacted at all.
func (c *cluster) fetchArtifact(ctx context.Context, owner, key string, req *RunRequest, askSim bool) (*artifactEnvelope, error) {
	p := c.byURL[owner]
	if p == nil {
		return nil, fmt.Errorf("cluster: owner %s is not a known peer", owner)
	}
	if !p.isHealthy() {
		c.metrics.Add("sarad_proxy_skipped_unhealthy_total", 1)
		return nil, fmt.Errorf("cluster: owner %s is marked unhealthy", owner)
	}
	t0 := time.Now()
	env, err := c.fetchOnce(ctx, p, key, req, askSim)
	if err != nil && ctx.Err() == nil {
		c.metrics.Add("sarad_proxy_retries_total", 1)
		env, err = c.fetchOnce(ctx, p, key, req, askSim)
	}
	if err != nil {
		c.metrics.Add("sarad_proxy_failures_total", 1)
		p.setHealth(false, err)
		return nil, err
	}
	c.metrics.Add("sarad_proxy_success_total", 1)
	c.metrics.Add("sarad_proxy_artifact_bytes_total", int64(len(env.Artifact)))
	c.metrics.Observe("sarad_proxy_seconds", time.Since(t0).Seconds())
	return env, nil
}

func (c *cluster) fetchOnce(ctx context.Context, p *peer, key string, req *RunRequest, askSim bool) (*artifactEnvelope, error) {
	c.metrics.Add("sarad_proxy_attempts_total", 1)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, c.proxyTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, p.url+"/v1/artifact", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// The owner recomputes the content address from the body; sending ours
	// lets it reject version skew (differing canonicalization) loudly
	// instead of serving the wrong design.
	hreq.Header.Set("X-Sara-Key", key)
	if askSim {
		hreq.Header.Set(simHeader, "1")
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: %s/v1/artifact status %d: %s", p.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	env, err := decodeEnvelope(resp.Body, key)
	if err != nil {
		return nil, fmt.Errorf("cluster: owner %s: %w", p.url, err)
	}
	return env, nil
}

// decodeEnvelope reads an owner's /v1/artifact answer to a request for key.
func decodeEnvelope(r io.Reader, key string) (*artifactEnvelope, error) {
	env := &artifactEnvelope{}
	if err := json.NewDecoder(r).Decode(env); err != nil {
		return nil, fmt.Errorf("decoding artifact envelope: %w", err)
	}
	if env.Key != key {
		return nil, fmt.Errorf("answered key %s for request key %s", env.Key, key)
	}
	return env, nil
}
