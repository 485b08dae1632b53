// Package server turns the SARA batch flow into a serving subsystem: a JSON
// HTTP API (stdlib net/http only) that accepts a spatial program — inline or
// by registered workload name — plus a chip spec and compiler options, runs
// the full compile pipeline, and executes either the cycle-level or the
// analytic engine.
//
// The design leans on the flow being a deterministic pure function of
// (program, arch, options), §V of the paper: requests are canonicalized and
// SHA-256 content-addressed, so identical work compiles once (single-flight)
// and is reused from an LRU cache, and a cycle-level simulation — as pure a
// function of its design — runs once and is answered from the design store's
// result memo afterwards, its stored wire result spliced into the response. A
// bounded worker pool caps concurrent compilation/simulation at what the host
// can parallelize and sheds load with 429 + Retry-After once its queue fills. /metrics exposes counters and
// latency histograms in the Prometheus text format.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/merge"
	"sara/internal/opt"
	"sara/internal/partition"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/workloads"
	"sara/spatial"
)

// Options configures a Server.
type Options struct {
	// Workers caps concurrently executing compile/simulate jobs
	// (default 4).
	Workers int
	// QueueDepth is the waiting room beyond the workers; a full queue sheds
	// load with 429 (default 16).
	QueueDepth int
	// CacheEntries bounds the compile cache (default 64 compiled designs).
	CacheEntries int
	// DefaultTimeout bounds a request that does not set timeout_ms; it is
	// also the maximum any request may ask for (default 120s).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// StoreDir roots the persistent design store. Compiled artifacts and
	// per-stage intermediates are content-addressed there, surviving
	// restarts: at startup the LRU cache is warmed from persisted final
	// artifacts, and every compile reuses unchanged pipeline prefixes. Empty
	// means memory-only (still incremental within the process). A directory
	// that cannot be opened degrades gracefully to memory-only; StoreError
	// reports why.
	StoreDir string

	// Peers lists the base URLs of the other cluster members. Together with
	// SelfURL they form a consistent-hash ring over the compile
	// content-address space: a cache-and-store miss on a key owned by a peer
	// is proxied to that peer so each unique design compiles once
	// cluster-wide. Empty means standalone. Every node must be given the
	// same membership (SelfURL may be included in Peers or not; it is added
	// automatically).
	Peers []string
	// SelfURL is this node's base URL exactly as it appears in the other
	// nodes' Peers lists; ring ownership is keyed on the literal string.
	// Required when Peers is non-empty.
	SelfURL string
	// ProxyTimeout bounds each proxied artifact fetch attempt (one retry,
	// then the requester compiles locally). Default 15s.
	ProxyTimeout time.Duration
	// HealthInterval paces the background peer /healthz probes (default 2s).
	HealthInterval time.Duration
	// VirtualNodes is the per-member point count on the hash ring (default
	// DefaultVirtualNodes = 128).
	VirtualNodes int

	// TuneMaxPoints caps the design-space size a single tune request may
	// enumerate (default 512). A request's own max_points can only lower it.
	TuneMaxPoints int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	} else if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 120 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.ProxyTimeout <= 0 {
		o.ProxyTimeout = 15 * time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.TuneMaxPoints <= 0 {
		o.TuneMaxPoints = 512
	}
	return o
}

// Server is the compile-and-simulate service.
type Server struct {
	opts    Options
	cache   *Cache
	pool    *Pool
	metrics *Metrics
	mux     *http.ServeMux
	store   *store.Store
	// cluster holds the consistent-hash ring, peer health, and the proxy
	// client when Options.Peers is non-empty; nil for a standalone node.
	cluster *cluster
	// artifactSem bounds concurrent /v1/artifact compiles (they run off the
	// worker pool — see handleArtifact); a full semaphore sheds with 429.
	artifactSem chan struct{}
	// storeErr records why Options.StoreDir could not be opened (the server
	// then runs memory-only); nil otherwise.
	storeErr error

	// simFlights holds the memoised simulations running now, by memo key, so
	// concurrent asks for one record share one run (see simulateMemo).
	simMu      sync.Mutex
	simFlights map[string]*simFlight

	// jobGate, when set, runs at the start of every pooled job; tests use it
	// to hold workers busy deterministically. simGate does the same for every
	// memoised simulation run.
	jobGate func()
	simGate func()
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:        opts,
		cache:       NewCache(opts.CacheEntries),
		pool:        NewPool(opts.Workers, opts.QueueDepth),
		metrics:     NewMetrics(),
		mux:         http.NewServeMux(),
		artifactSem: make(chan struct{}, opts.Workers+opts.QueueDepth),
		simFlights:  map[string]*simFlight{},
	}
	if opts.StoreDir != "" {
		s.store, s.storeErr = store.Open(opts.StoreDir)
	}
	if s.store == nil {
		// Memory-only fallback: Open("") cannot fail.
		s.store, _ = store.Open("")
	}
	s.store.SetLoadCheck(store.SimStage, checkSimRecord)
	warmed := s.warmCache()
	if len(opts.Peers) > 0 && opts.SelfURL != "" {
		s.cluster = newCluster(opts, s.metrics)
		s.cluster.start()
		s.metrics.Gauge("sarad_cluster_nodes", func() int64 {
			return int64(len(s.cluster.ring.Nodes()))
		})
		s.metrics.Gauge("sarad_cluster_peers_healthy", func() int64 {
			return int64(s.cluster.healthyPeers())
		})
		// The simulation-record funnel renders from the start, zeros included.
		for _, name := range []string{
			"sarad_artifact_sims_total", "sarad_artifact_sim_budget_exceeded_total",
			"sarad_proxy_sim_records_total", "sarad_proxy_sim_records_rejected_total",
		} {
			s.metrics.Add(name, 0)
		}
	}
	s.metrics.Gauge("sarad_queue_depth", func() int64 { return int64(s.pool.QueueDepth()) })
	s.metrics.Gauge("sarad_workers_busy", func() int64 { return s.pool.Active() })
	s.metrics.Gauge("sarad_cache_entries", func() int64 { return int64(s.cache.Stats().Entries) })
	s.metrics.Add("sarad_cache_warmed_total", int64(warmed))
	s.registerStoreMetrics()
	s.mux.HandleFunc("/v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("/v1/compile", s.instrument("/v1/compile", s.handleCompile))
	s.mux.HandleFunc("/v1/artifact", s.instrument("/v1/artifact", s.handleArtifact))
	s.mux.HandleFunc("/v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.Render(w)
	})
	return s
}

// warmCache replays persisted final artifacts into the LRU at startup, so a
// restarted sarad serves its recent designs without recompiling. Undecodable
// entries (e.g. from an interrupted write) are skipped. Returns the number
// of designs restored.
func (s *Server) warmCache() int {
	keys := s.store.ListKeys(store.FinalStage)
	warmed := 0
	for _, key := range keys {
		if warmed >= s.opts.CacheEntries {
			break
		}
		data, ok := s.store.Get(store.FinalStage, key)
		if !ok {
			continue
		}
		a, err := store.DecodeArtifact(data)
		if err != nil {
			continue
		}
		s.cache.Seed(key, newDesign(key, compiledFromArtifact(a)))
		warmed++
	}
	return warmed
}

// compiledFromArtifact rehydrates a decoded final artifact into the form
// the serving path uses. The codec round-trip is bit-exact (see
// internal/store), so a design restored here simulates cycle-for-cycle like
// the compile that produced it — the property the cluster's bit-identical
// proxy responses rest on.
func compiledFromArtifact(a *store.Artifact) *core.Compiled {
	return &core.Compiled{
		Prog:       a.Prog,
		Spec:       a.Spec,
		Plan:       a.State.Plan,
		Lowered:    a.State.Lowered,
		OptStats:   a.State.OptStats,
		BankStats:  a.State.BankStats,
		PartStats:  a.State.PartStats,
		Merged:     a.State.Merged,
		Placement:  a.State.Placement,
		PhaseTimes: a.PhaseTimes,
	}
}

// compiledFromStore serves a final artifact persisted under key from the
// local store tier (a design this node compiled or proxied in a past life),
// skipping both recompilation and the cluster hop. Undecodable bytes fall
// through to a fresh compile.
func (s *Server) compiledFromStore(key string) (*core.Compiled, bool) {
	data, ok := s.store.Get(store.FinalStage, key)
	if !ok {
		return nil, false
	}
	a, err := store.DecodeArtifact(data)
	if err != nil {
		return nil, false
	}
	return compiledFromArtifact(a), true
}

// registerStoreMetrics exposes the design store's per-stage cache traffic
// and disk footprint as gauges.
func (s *Server) registerStoreMetrics() {
	stages := append(append([]string(nil), core.StageNames...), store.FinalStage, store.SimStage, store.SolverStage)
	for _, stage := range stages {
		stage := stage
		name := metricName(stage)
		s.metrics.Gauge("sarad_store_stage_hits_"+name, func() int64 {
			return s.store.Stats().Stages[stage].Hits
		})
		s.metrics.Gauge("sarad_store_stage_misses_"+name, func() int64 {
			return s.store.Stats().Stages[stage].Misses
		})
		s.metrics.Gauge("sarad_store_stage_bytes_read_"+name, func() int64 {
			return s.store.Stats().Stages[stage].BytesRead
		})
		s.metrics.Gauge("sarad_store_stage_bytes_written_"+name, func() int64 {
			return s.store.Stats().Stages[stage].BytesWritten
		})
	}
	s.metrics.Gauge("sarad_store_solver_hits", func() int64 { return s.store.Stats().SolverHits })
	s.metrics.Gauge("sarad_store_solver_misses", func() int64 { return s.store.Stats().SolverMiss })
	s.metrics.Gauge("sarad_store_basis_hits", func() int64 { return s.store.Stats().BasisHits })
	s.metrics.Gauge("sarad_store_basis_misses", func() int64 { return s.store.Stats().BasisMiss })
	s.metrics.Gauge("sarad_store_mem_entries", func() int64 { return int64(s.store.Stats().MemEntries) })
	s.metrics.Gauge("sarad_store_disk_entries", func() int64 { return int64(s.store.Stats().DiskEntries) })
	s.metrics.Gauge("sarad_store_disk_bytes", func() int64 { return s.store.Stats().DiskBytes })
}

// StoreError reports why the configured store directory could not be opened
// (the server degraded to a memory-only store); nil when the store is
// healthy.
func (s *Server) StoreError() error { return s.storeErr }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains in-flight and queued jobs and the simulations they started,
// waiting up to ctx's deadline. Call after http.Server.Shutdown so no new
// work arrives while draining.
func (s *Server) Close(ctx context.Context) error {
	if s.cluster != nil {
		s.cluster.stop()
	}
	if err := s.pool.Shutdown(ctx); err != nil {
		return err
	}
	return s.drainSims(ctx)
}

// RunRequest is the body of /v1/run and /v1/compile. Exactly one of Workload
// or Program selects what to compile.
type RunRequest struct {
	// Workload names a registered benchmark (see /v1/workloads)...
	Workload string `json:"workload,omitempty"`
	// Par and Scale parameterize a workload (defaults 16 and 16).
	Par   int `json:"par,omitempty"`
	Scale int `json:"scale,omitempty"`
	// ...or Program carries an inline spatial program.
	Program *ProgramJSON `json:"program,omitempty"`

	// Arch selects and overrides the chip preset (default: the 20×20 HBM2).
	Arch *arch.SpecJSON `json:"arch,omitempty"`
	// Options toggles compiler passes.
	Options *CompileOptionsJSON `json:"options,omitempty"`
	// Engine is "auto" (the default), "cycle" or "event" — three names of the
	// event-driven engine, so result.engine reads "cycle" for all of them —
	// or "analytic"; ignored by /v1/compile. The dense reference engine is a
	// test oracle and is refused.
	Engine string `json:"engine,omitempty"`
	// Profile attaches the timeline profiler to the simulation and returns
	// the analyzed report (per-unit stall attribution, critical path) inline
	// in the response. Cycle engines only; incompatible with "analytic".
	// Profiling does not perturb the simulation, and the compiled design is
	// cached under the same key either way.
	Profile bool `json:"profile,omitempty"`
	// Tune turns the request into a design-space autotuner search over the
	// named workload: the response is the full tune result (Pareto front,
	// per-point statuses, baseline) instead of a single run. Candidate
	// compiles flow through the same cache/store/cluster hierarchy as
	// ordinary requests. /v1/run only; Workload requests only; incompatible
	// with Engine overrides (finalists always validate on the event engine)
	// and Profile (every point already carries bottleneck attribution).
	Tune *TuneParamsJSON `json:"tune,omitempty"`
	// TimeoutMS bounds this request, capped at the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CompileOptionsJSON is the wire form of the compiler configuration.
type CompileOptionsJSON struct {
	// NoOpt disables the §III-C optimization suite.
	NoOpt bool `json:"no_opt,omitempty"`
	// Solver uses MIP partitioning/merging with SolverGap (default 0.15).
	Solver    bool    `json:"solver,omitempty"`
	SolverGap float64 `json:"solver_gap,omitempty"`
	// SolverWorkers sizes the branch-and-bound speculation pool (0 = auto,
	// 1 = the serial oracle). The solver is deterministic at any setting,
	// so this changes compile time, never the compiled design.
	SolverWorkers int `json:"solver_workers,omitempty"`
	// SkipPlace skips placement; streams are charged the arch's default hop
	// distance.
	SkipPlace bool `json:"skip_place,omitempty"`
	// NoBanking, NoMerging, NoCreditRelaxation disable the respective passes
	// (the paper's ablations, §IV-C).
	NoBanking          bool `json:"no_banking,omitempty"`
	NoMerging          bool `json:"no_merging,omitempty"`
	NoCreditRelaxation bool `json:"no_credit_relaxation,omitempty"`
	// Opt, when present, sets the §III-C optimization flags exactly (taking
	// precedence over NoOpt). The autotuner's candidate requests use this to
	// pin each point's opt set; absent means the default full suite.
	Opt *OptTogglesJSON `json:"opt,omitempty"`
}

// OptTogglesJSON is the wire form of the individual optimization flags.
// Unset flags are off — send every flag you want enabled.
type OptTogglesJSON struct {
	MSR       bool `json:"msr,omitempty"`
	RtElm     bool `json:"rt_elm,omitempty"`
	Retime    bool `json:"retime,omitempty"`
	RetimeMem bool `json:"retime_mem,omitempty"`
	XbarElm   bool `json:"xbar_elm,omitempty"`
}

func (t *OptTogglesJSON) options() opt.Options {
	return opt.Options{MSR: t.MSR, RtElm: t.RtElm, Retime: t.Retime, RetimeMem: t.RetimeMem, XbarElm: t.XbarElm}
}

func (o *CompileOptionsJSON) config(spec *arch.Spec) core.Config {
	cfg := core.DefaultConfig()
	cfg.Spec = spec
	if o == nil {
		return cfg
	}
	if o.NoOpt {
		cfg.Opt = opt.None()
	}
	if o.Opt != nil {
		cfg.Opt = o.Opt.options()
	}
	if o.Solver {
		gap := o.SolverGap
		if gap <= 0 {
			gap = 0.15
		}
		cfg.Partition.Algo = partition.AlgoSolver
		cfg.Partition.Gap = gap
		cfg.Merge.Algo = partition.AlgoSolver
		cfg.Merge.Gap = gap
		cfg.Partition.Workers = o.SolverWorkers
		cfg.Merge.Workers = o.SolverWorkers
	}
	if o.SkipPlace {
		cfg.SkipPlace = true
	}
	if o.NoBanking {
		cfg.Membank.DisableBanking = true
	}
	if o.NoMerging {
		cfg.Merge = merge.Options{DisableMerging: true}
	}
	if o.NoCreditRelaxation {
		cfg.Consistency.DisableCreditRelaxation = true
	}
	return cfg
}

// ResourcesJSON is the wire form of a compiled design's footprint.
type ResourcesJSON struct {
	PCU          int `json:"pcu"`
	PMU          int `json:"pmu"`
	AG           int `json:"ag"`
	Total        int `json:"total"`
	VUs          int `json:"vus"`
	TokenStreams int `json:"token_streams"`
}

func resourcesJSON(r core.Resources) ResourcesJSON {
	return ResourcesJSON{PCU: r.PCU, PMU: r.PMU, AG: r.AG, Total: r.Total, VUs: r.VUs, TokenStreams: r.TokenStreams}
}

// RunResponse is the body answering /v1/run and /v1/compile.
type RunResponse struct {
	Program  string `json:"program"`
	Arch     string `json:"arch"`
	CacheKey string `json:"cache_key"`
	CacheHit bool   `json:"cache_hit"`
	// Proxied marks a compile fetched from the cluster owner of this key on
	// this request: the design was decoded from the owner's artifact, and a
	// memoised simulation came back with it as the owner's result record
	// (when the owner had it or finished it within its wait budget; else
	// this node simulated). ProxyOwner names the peer it came from. Later
	// identical requests hit the local LRU and report cache_hit instead.
	Proxied    bool   `json:"proxied,omitempty"`
	ProxyOwner string `json:"proxy_owner,omitempty"`
	// StoreHit marks a compile served from this node's persistent design
	// store (final-artifact tier) without recompiling or proxying.
	StoreHit bool `json:"store_hit,omitempty"`
	// CompileMS is the wall time of the compile phase of this request; a
	// cache hit reports ~0 (the cost was paid by an earlier request). A
	// proxied compile excludes the owner's simulation time (that is SimMS).
	CompileMS float64 `json:"compile_ms"`
	// SimCached marks a result no engine ran for: an earlier or concurrent
	// request simulated this design, here or on the cluster owner, and its
	// stored result was spliced in. SimMS is the simulation
	// time of this request — ~0 on a memo hit; when the owner ran the
	// engine for this request, the owner's time (SimCached false).
	SimCached bool    `json:"sim_cached,omitempty"`
	SimMS     float64 `json:"sim_ms,omitempty"`
	// SimCyclesPerSec is the simulated-cycle throughput of the engine run
	// for this request (on this node or the owner) — the service-level view
	// of simulator performance. Absent when no engine ran (sim_cached).
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	// PhaseMS is the per-stage compile-time split of the cached compile
	// (measured when the design was first compiled, so a cache hit repeats
	// the original numbers).
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
	// MIPNodesExplored counts branch-and-bound nodes across the compile's
	// solver invocations; zero under traversal partitioning/merging.
	MIPNodesExplored int `json:"mip_nodes_explored,omitempty"`
	// StageCache reports, per pipeline stage of this request's compile,
	// whether the stage was restored from the design store (true) or
	// recomputed (false). An LRU cache hit repeats the original compile's
	// flags.
	StageCache map[string]bool `json:"stage_cache,omitempty"`
	// Store is a point-in-time snapshot of the design store's per-stage
	// hit/miss/byte counters and disk footprint.
	Store     *store.Stats  `json:"store,omitempty"`
	Resources ResourcesJSON `json:"resources"`
	// Result is the simulation's sim.ResultJSON, compact encoding/json bytes
	// from encodeResult. A memo hit splices the stored record in unchanged,
	// so it is byte-identical to the answer of the run that simulated.
	Result json.RawMessage `json:"result,omitempty"`
	// Profile is the analyzed timeline profile, present when the request set
	// profile: true.
	Profile *profile.ReportJSON `json:"profile,omitempty"`

	// wire is the compile half encoded when the design entered the LRU (see
	// design); nil on a response built by hand, which the writer encodes in
	// full. resultChecked marks a Result that came through a record entry
	// point and is spliced without a second scan.
	wire          *compileWire
	resultChecked bool
}

// setSim fills the simulation members: record is a checked record (see
// checkSimRecord), cycles what it simulated when an engine ran for this
// request, wall the simulation time of this request.
func (r *RunResponse) setSim(record []byte, cycles int64, cached bool, wall time.Duration) {
	r.Result, r.resultChecked = record, true
	r.SimCached, r.SimMS = cached, msOf(wall)
	if sec := wall.Seconds(); !cached && sec > 0 {
		r.SimCyclesPerSec = float64(cycles) / sec
	}
}

type errorJSON struct {
	Error string `json:"error"`
}

// canonicalRequest is the normalized compile identity that gets hashed: it
// excludes everything that does not affect compilation (engine, timeout),
// and fills defaults so equivalent requests hash equally. All fields are
// structs, slices, and scalars — no maps — so encoding/json is canonical.
type canonicalRequest struct {
	Workload string             `json:"workload,omitempty"`
	Par      int                `json:"par,omitempty"`
	Scale    int                `json:"scale,omitempty"`
	Program  *ProgramJSON       `json:"program,omitempty"`
	Arch     arch.SpecJSON      `json:"arch"`
	Options  CompileOptionsJSON `json:"options"`
}

// cacheKey hashes the canonical compile identity of req.
func cacheKey(req *RunRequest) (string, error) {
	cr := canonicalRequest{
		Workload: req.Workload,
		Program:  req.Program,
	}
	if req.Workload != "" {
		cr.Par, cr.Scale = req.Par, req.Scale
	}
	if req.Arch != nil {
		cr.Arch = *req.Arch
	}
	if req.Options != nil {
		cr.Options = *req.Options
	}
	b, err := json.Marshal(&cr)
	if err != nil {
		return "", err
	}
	return store.HexDigest(sha256.Sum256(b)), nil
}

// normalize validates the request and fills defaults.
func (s *Server) normalize(req *RunRequest) error {
	switch {
	case req.Workload == "" && req.Program == nil:
		return errors.New("request needs a workload name or an inline program")
	case req.Workload != "" && req.Program != nil:
		return errors.New("request must set exactly one of workload and program")
	}
	if req.Program != nil {
		if err := req.Program.checkLimits(); err != nil {
			return err
		}
	}
	if req.Workload != "" {
		if _, err := workloads.ByName(req.Workload); err != nil {
			return err
		}
		if req.Par <= 0 {
			req.Par = 16
		}
		if req.Scale <= 0 {
			req.Scale = 16
		}
	}
	if req.Engine != "analytic" {
		kind, err := sim.ParseEngine(req.Engine)
		if err != nil {
			return fmt.Errorf("%w, or analytic", err)
		}
		// Canonical wire name: "", "auto" and "event" become "cycle".
		req.Engine = kind.String()
	}
	if req.Profile && req.Engine == "analytic" {
		return errors.New("profiling needs a cycle-level engine; the analytic model has no timeline")
	}
	if req.Tune != nil {
		switch {
		case req.Program != nil:
			return errors.New("tune requests name a registered workload; inline programs are not tunable")
		case req.Profile:
			return errors.New("tune requests cannot set profile: every point already carries bottleneck attribution")
		case req.Engine == "analytic":
			return fmt.Errorf("tune requests cannot pick engine %q: candidates are pruned analytically and finalists validate on the event engine", req.Engine)
		}
	}
	return nil
}

// buildProgram materializes the request's program (cheap relative to
// compilation; runs inside the pooled job).
func buildProgram(req *RunRequest) (*spatial.Program, error) {
	if req.Program != nil {
		return DecodeProgram(req.Program)
	}
	w, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, err
	}
	return w.Build(workloads.Params{Par: req.Par, Scale: req.Scale}), nil
}

// instrument wraps a handler with request counting and latency observation.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.ObserveRequest(endpoint, sw.status, time.Since(t0).Seconds())
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// responseBufs recycles writeJSON's response bodies.
var responseBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf keeps an occasional large body (a tune front, an artifact
// envelope) from pinning its buffer in the pool.
const maxPooledBuf = 256 << 10

// writeJSON answers v as compact JSON with its Content-Length. It encodes
// before it commits a status, so a value that does not encode (an invalid raw
// result) answers 500 with a JSON error instead of a 200 with an empty body.
// A *RunResponse goes through appendRunResponse, everything else through
// encoding/json; the bytes are the same either way.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := responseBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			buf.Reset()
			responseBufs.Put(buf)
		}
	}()
	var err error
	if r, ok := v.(*RunResponse); ok {
		var b []byte
		if b, err = appendRunResponse(buf.AvailableBuffer(), r); err == nil {
			buf.Write(append(b, '\n')) //nolint:errcheck // a bytes.Buffer write cannot fail
		}
	} else {
		err = json.NewEncoder(buf).Encode(v)
	}
	if err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(errorJSON{Error: "encoding response: " + err.Error()}) //nolint:errcheck // a string always encodes
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*RunRequest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return nil, false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	req := &RunRequest{}
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return nil, false
	}
	if err := s.normalize(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return req, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, true)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, false)
}

// serve is the shared run/compile path: decode, hash, answer from memory
// when both halves are there, else schedule on the pool and wait for the job
// or the request deadline.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, simulate bool) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if req.Tune != nil {
		if !simulate {
			writeError(w, http.StatusBadRequest, errors.New("tune requests go to /v1/run: a search validates candidates by simulating them"))
			return
		}
		s.serveTune(w, r, req)
		return
	}
	spec, err := specFor(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var resident *design
	if simulate && memoEligible(req) {
		var resp *RunResponse
		if resp, resident = s.answerFromMemory(key); resp != nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 && time.Duration(req.TimeoutMS)*time.Millisecond < timeout {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	type outcome struct {
		resp   *RunResponse
		status int
		err    error
	}
	done := make(chan outcome, 1)
	job := func() {
		if s.jobGate != nil {
			s.jobGate()
		}
		resp, status, err := s.execute(ctx, req, spec, key, simulate, resident)
		done <- outcome{resp, status, err}
	}
	if err := s.pool.Submit(job); err != nil {
		if errors.Is(err, ErrSaturated) {
			s.metrics.Add("sarad_rejected_total", 1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	select {
	case o := <-done:
		if o.err != nil {
			writeError(w, o.status, o.err)
			return
		}
		writeJSON(w, o.status, o.resp)
	case <-ctx.Done():
		// The job keeps running (compilation is not preemptible) and will
		// still populate the cache and the result memo; only this response
		// gives up.
		s.metrics.Add("sarad_timeouts_total", 1)
		writeError(w, http.StatusGatewayTimeout, ctx.Err())
	}
}

func specFor(req *RunRequest) (*arch.Spec, error) {
	aj := req.Arch
	if aj == nil {
		aj = &arch.SpecJSON{}
	}
	return aj.Spec()
}

// answerFromMemory answers a memo-eligible /v1/run whose design is in the
// LRU and whose record is in the store's memory tier, in the handler
// goroutine: it compiles nothing, reads no disk, proxies nothing and
// simulates nothing, so it holds no worker. Otherwise resp is nil, and d is
// the LRU's design, if it had one, for the pooled job to simulate without
// looking it up again.
func (s *Server) answerFromMemory(key string) (resp *RunResponse, d *design) {
	t0 := time.Now()
	if d = s.cache.Get(key); d == nil {
		return nil, nil
	}
	resp = s.newResponse(d, true, compileVia{}, time.Since(t0))
	t1 := time.Now()
	record, ok := s.store.Cached(store.SimStage, memoKeyFor(key))
	if !ok {
		return nil, d
	}
	s.metrics.Add("sarad_cache_hits_total", 1)
	s.metrics.Add("sarad_sim_memo_hits_total", 1)
	s.metrics.Add("sarad_sim_requests_total", 1)
	resp.setSim(record, 0, true, time.Since(t1))
	return resp, d
}

// execute runs inside a pool worker: compile via the content-addressed
// cache — unless the handler already found the design there, resident —
// then simulate.
func (s *Server) execute(ctx context.Context, req *RunRequest, spec *arch.Spec, key string, simulate bool, resident *design) (*RunResponse, int, error) {
	if err := jobAbandoned(ctx); err != nil {
		return nil, http.StatusGatewayTimeout, err
	}
	t0 := time.Now()
	d, hit, via := resident, true, compileVia{}
	if d == nil {
		ask := proxyDesign
		if simulate && memoEligible(req) {
			ask = proxyDesignAndSim
		}
		var err error
		if d, hit, via, err = s.compileForRequest(ctx, req, spec, key, ask); err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
	}
	compileWall := time.Since(t0)
	if hit {
		s.metrics.Add("sarad_cache_hits_total", 1)
	} else {
		s.metrics.Add("sarad_cache_misses_total", 1)
	}
	if via.sim != nil {
		// The proxy round trip waited out the owner's simulation too.
		compileWall = max(0, compileWall-via.sim.wall)
	}
	resp := s.newResponse(d, hit, via, compileWall)
	if !simulate {
		return resp, http.StatusOK, nil
	}

	if err := jobAbandoned(ctx); err != nil {
		return nil, http.StatusGatewayTimeout, err
	}
	if err := s.simulate(req, d.c, key, via.sim, resp); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	return resp, http.StatusOK, nil
}

// newResponse starts the answer naming d: its compile half, this request's
// compile flags and time, and a store snapshot.
func (s *Server) newResponse(d *design, hit bool, via compileVia, compileWall time.Duration) *RunResponse {
	resp := new(RunResponse)
	*resp = d.resp
	resp.CacheHit, resp.StoreHit = hit, via.storeHit
	resp.Proxied, resp.ProxyOwner = via.proxyOwner != "", via.proxyOwner
	resp.CompileMS = msOf(compileWall)
	st := s.store.Stats()
	resp.Store = &st
	return resp
}

// msOf is a duration in the wire's milliseconds (microsecond resolution).
func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// jobAbandoned reports whether a pooled job's client hung up. A request that
// merely timed out was told its job keeps running: the design lands in the
// cache and the result in the memo, so the client's retry costs nothing.
func jobAbandoned(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// simMaxCycles is the runaway cap every served simulation runs under (0 = the
// engines' 200M-cycle default); part of the memo key.
const simMaxCycles = 0

// memoEligible reports whether a /v1/run of req simulates behind the result
// memo. Three requests run their engine directly because the premise does not
// hold for them: a profiled run (the recording is the point and is not
// stored), the analytic model (microseconds — a lookup saves nothing) and a
// solver compile (until the solver's search is bounded by a counted budget,
// ROADMAP item 13, a solver request's key does not determine its design).
func memoEligible(req *RunRequest) bool {
	return !req.Profile && req.Engine != "analytic" && (req.Options == nil || !req.Options.Solver)
}

// simRecordFormat names what a sim-tier record holds: the wire result, which
// encodeResult writes. It is part of the memo key, so a record in another
// format (the plain-data sim.Result earlier builds stored, Go field names and
// all) lives under another key and is never spliced into a response.
const simRecordFormat = "result-json"

// memoKeyFor names the result record of simulating the design compiled under
// key. A Result is a pure function of (design, cycle cap, sim.Version) and the
// compile content address names the design, so every engine name a request
// can spell shares one record; a node that runs another sim.Version or record
// format computes another key.
func memoKeyFor(key string) string {
	return store.NewHasher(store.SimStage, key).Str(simRecordFormat).Int(sim.Version).I64(simMaxCycles).Sum()
}

// encodeResult is the one encoder of a response's result member: the compact
// encoding/json bytes of r's sim.ResultJSON, with spec's clock. The result
// memo stores exactly these bytes as its record, so a hit answers them
// without decoding or encoding anything. They are json.Marshal's, so already
// in the form checkSimRecord gives a record: this entry point needs no check.
func encodeResult(r *sim.Result, spec *arch.Spec) (json.RawMessage, error) {
	return json.Marshal(r.JSON(spec))
}

// decodeSimRecord is the second half of a peer record's check (the first is
// checkSimRecord): the record decodes as a sim.ResultJSON, whose cycle count
// is the one behind sim_cycles_per_sec.
func decodeSimRecord(data []byte) (*sim.ResultJSON, error) {
	r := &sim.ResultJSON{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// simulate is the second half of execute: run req's engine on the compiled
// design — or take the record the cluster owner answered with for this
// request, owner — and fill the simulation fields of resp.
func (s *Server) simulate(req *RunRequest, compiled *core.Compiled, key string, owner *ownerSim, resp *RunResponse) error {
	t1 := time.Now()
	var (
		record json.RawMessage
		cycles int64
		cached bool
		rec    *profile.Recording
		err    error
	)
	switch {
	case owner != nil:
		record, cycles, cached = owner.record, owner.cycles, !owner.ran
	case memoEligible(req):
		// Memoised runs count themselves, on the node they ran on.
		var ans simAnswer
		ans, err = s.simulateMemo(compiled, memoKeyFor(key), nil)
		record, cycles, cached = ans.record, ans.cycles, !ans.ran
	default:
		design := compiled.Design()
		var result *sim.Result
		switch {
		case req.Engine == "analytic":
			result, err = sim.Analytic(design)
		case req.Profile:
			result, rec, err = sim.CycleProfiled(design, simMaxCycles, sim.EngineEvent)
		default:
			result, err = sim.CycleEngine(design, simMaxCycles, sim.EngineEvent)
		}
		if err == nil {
			s.observeSimulation(result, time.Since(t1))
			cycles = result.Cycles
			record, err = encodeResult(result, design.Spec)
		}
	}
	if err != nil {
		return err
	}
	simWall := time.Since(t1)
	if owner != nil {
		simWall = owner.wall
	}
	s.metrics.Add("sarad_sim_requests_total", 1)
	resp.setSim(record, cycles, cached, simWall)
	if rec != nil {
		rep := profile.Analyze(rec)
		// Refined attribution (upstream vs network vs DRAM, token vs credit)
		// exists only on profiled runs, so these counters cover the profiled
		// subset of the coarse ones observeSimulation keeps.
		for cause, n := range rep.StallsByCause {
			s.metrics.Add("sarad_sim_profiled_stall_cycles_"+metricName(cause)+"_total", n)
		}
		s.metrics.Add("sarad_sim_profiled_requests_total", 1)
		resp.Profile = rep.JSON()
	}
	return nil
}

// observeSimulation counts one simulation this node executed. Memo hits and
// records taken from the cluster owner do not come here, so
// sarad_sim_seconds, sarad_cycles_simulated_total and the stall counters count
// each run once, on the node that ran it.
func (s *Server) observeSimulation(result *sim.Result, wall time.Duration) {
	s.metrics.Observe("sarad_sim_seconds", wall.Seconds())
	s.metrics.Add("sarad_cycles_simulated_total", result.Cycles)
	// Per-cause stall counters come from every cycle-level run; a scrape sees
	// where the fleet's simulated cycles are going, not just how many ran.
	for cause, n := range result.Stalls {
		s.metrics.Add("sarad_sim_stall_cycles_"+metricName(cause)+"_total", n)
	}
}

// simFlight is one memoised simulation in progress; asks for its memo key
// that arrive meanwhile wait on done instead of running the engine again.
type simFlight struct {
	done   chan struct{}
	record []byte // the bytes Put under the memo key; nil on error
	cycles int64
	err    error
}

// simAnswer is simulateMemo's reply: the record (encodeResult's bytes),
// whether this call started the engine (false on a memo hit and when it
// joined a run another call had started) and, when it did, the cycles it
// simulated.
type simAnswer struct {
	record []byte
	cycles int64
	ran    bool
}

// errSimBudget: the caller stopped waiting before the shared run finished;
// the run carries on into the memo.
var errSimBudget = errors.New("simulation still running past the wait budget")

// simulateMemo answers a cycle-level simulation from the result memo: the
// record lives in the design store's sim tier under memoKey (memoKeyFor) —
// memory and disk, outliving LRU eviction and restarts. On a miss one run per
// memo key executes in its own goroutine and every concurrent ask shares it;
// deadline, when non-nil, bounds the wait, past which the caller gets
// errSimBudget while the run still finishes into the memo (the owner side of
// /v1/artifact uses it). Errors are never stored — a deadlocking design
// deadlocks every time. A hit splices the record as it is: every record in
// the memory tier was checked where it entered the process (checkSimRecord,
// the sim stage's load check on a disk read), and a disk record that fails
// the check reads as a miss, is simulated afresh and overwritten. Hits count
// asks answered without starting an engine.
func (s *Server) simulateMemo(c *core.Compiled, memoKey string, deadline <-chan time.Time) (simAnswer, error) {
	// The flight table and the record are read under one lock, and a run Puts
	// its record before it leaves the table: an ask sees one or the other.
	s.simMu.Lock()
	f, joined := s.simFlights[memoKey]
	if !joined {
		if data, ok := s.store.Get(store.SimStage, memoKey); ok {
			s.simMu.Unlock()
			s.metrics.Add("sarad_sim_memo_hits_total", 1)
			return simAnswer{record: data}, nil
		}
		if !joined {
			f = &simFlight{done: make(chan struct{})}
			s.simFlights[memoKey] = f
			go s.runSim(f, c.Design(), memoKey)
		}
	}
	s.simMu.Unlock()
	if joined {
		s.metrics.Add("sarad_sim_memo_hits_total", 1)
	} else {
		s.metrics.Add("sarad_sim_memo_misses_total", 1)
	}
	select {
	case <-f.done:
		return simAnswer{record: f.record, cycles: f.cycles, ran: !joined}, f.err
	case <-deadline:
		return simAnswer{ran: !joined}, errSimBudget
	}
}

// runSim executes f, counts it on this node, writes its record — the wire
// result, clock from d.Spec, engine "cycle" — once, Puts it and only then
// leaves the flight table (the order simulateMemo's lookup relies on).
func (s *Server) runSim(f *simFlight, d *sim.Design, memoKey string) {
	if s.simGate != nil {
		s.simGate()
	}
	t0 := time.Now()
	result, err := sim.CycleEngine(d, simMaxCycles, sim.EngineEvent)
	if err == nil {
		s.observeSimulation(result, time.Since(t0))
		f.cycles = result.Cycles
		f.record, err = encodeResult(result, d.Spec)
	}
	if f.err = err; err == nil {
		s.store.Put(store.SimStage, memoKey, f.record)
	}
	s.simMu.Lock()
	delete(s.simFlights, memoKey)
	s.simMu.Unlock()
	close(f.done)
}

// drainSims waits until no memoised simulation is running.
func (s *Server) drainSims(ctx context.Context) error {
	for {
		var f *simFlight
		s.simMu.Lock()
		for _, f = range s.simFlights {
			break
		}
		s.simMu.Unlock()
		if f == nil {
			return nil
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// compileVia records how a compile request was satisfied when it missed the
// LRU: proxied from the cluster owner (with the owner's simulation when it
// answered one), served from the local persistent store, or (all zero)
// compiled locally.
type compileVia struct {
	proxyOwner string
	storeHit   bool
	sim        *ownerSim
}

// ownerSim is the simulation the cluster owner answered with alongside the
// artifact: its record (the wire result), the cycles the record reports,
// whether it ran the engine for this request (false: it already had the
// record) and its simulation wall time for this request.
type ownerSim struct {
	record []byte
	cycles int64
	ran    bool
	wall   time.Duration
}

// proxyAsk says what a cache-and-store miss may fetch from the ring owner.
type proxyAsk int

const (
	proxyNone         proxyAsk = iota // compile here: the owner side of /v1/artifact
	proxyDesign                       // the compiled design
	proxyDesignAndSim                 // the design and its memoised simulation
)

// compileForRequest resolves req's design through the full serving
// hierarchy: LRU cache (with single-flight dedup) → local persistent store
// → cluster owner via proxy (unless ask is proxyNone, and only when this node
// does not own the key) → local compile. The proxy hop runs inside the
// single-flight slot, so M concurrent identical requests on this node issue
// at most one proxy call, and the owner's own single-flight collapses calls
// from different nodes — each unique design compiles exactly once
// cluster-wide, and with proxyDesignAndSim its memoised simulation runs once
// cluster-wide too. Any proxy failure (dead peer, timeout after one retry,
// saturation, decode error) falls back to compiling locally, i.e. standalone
// sarad behavior.
func (s *Server) compileForRequest(ctx context.Context, req *RunRequest, spec *arch.Spec, key string, ask proxyAsk) (*design, bool, compileVia, error) {
	var via compileVia
	d, hit, err := s.cache.GetOrCompile(key, func() (*design, error) {
		if c, ok := s.compiledFromStore(key); ok {
			via.storeHit = true
			s.metrics.Add("sarad_store_final_serves_total", 1)
			return newDesign(key, c), nil
		}
		if ask != proxyNone && s.cluster != nil {
			if owner, local := s.cluster.route(key); !local {
				if c, owned, ok := s.proxyCompile(ctx, owner, key, req, ask == proxyDesignAndSim); ok {
					via.proxyOwner, via.sim = owner, owned
					return newDesign(key, c), nil
				}
				s.metrics.Add("sarad_proxy_fallback_local_total", 1)
			}
		}
		s.metrics.Add("sarad_compiles_total", 1)
		prog, err := buildProgram(req)
		if err != nil {
			return nil, err
		}
		cfg := req.Options.config(spec)
		cfg.Memo = s.store
		c, err := core.Compile(prog, cfg)
		if err != nil {
			return nil, err
		}
		// Persist the finished design under the request's content address so
		// a restarted server can warm its LRU without recompiling.
		s.store.Put(store.FinalStage, key, encodeArtifact(c))
		s.metrics.Observe("sarad_compile_seconds", c.CompileTime().Seconds())
		for phase, d := range c.PhaseTimes {
			s.metrics.Observe("sarad_compile_phase_seconds_"+phase, d.Seconds())
		}
		s.metrics.Add("sarad_mip_nodes_explored_total", int64(c.MIPNodes()))
		return newDesign(key, c), nil
	})
	return d, hit, via, err
}

// proxyCompile fetches key's artifact from its cluster owner. On success
// the artifact bytes are persisted into this node's local store tier —
// after the owner dies, repeats of this request are still served locally —
// and the decoded design carries the owner's per-stage cache flags so
// stage_cache stays accurate through the proxy path. ok=false means the
// caller should compile locally. askSim asks the owner for req's memoised
// simulation too; the record it answers with is checked by acceptSimRecord.
func (s *Server) proxyCompile(ctx context.Context, owner, key string, req *RunRequest, askSim bool) (*core.Compiled, *ownerSim, bool) {
	env, err := s.cluster.fetchArtifact(ctx, owner, key, req, askSim)
	if err != nil {
		return nil, nil, false
	}
	c, own, err := s.admitEnvelope(env, key)
	if err != nil {
		s.metrics.Add("sarad_proxy_decode_errors_total", 1)
		return nil, nil, false
	}
	return c, own, true
}

// admitEnvelope takes in an owner's envelope for key: the artifact decodes
// and is persisted into this node's final tier, and its record goes through
// acceptSimRecord. An artifact that does not decode is refused whole.
func (s *Server) admitEnvelope(env *artifactEnvelope, key string) (*core.Compiled, *ownerSim, error) {
	a, err := store.DecodeArtifact(env.Artifact)
	if err != nil {
		return nil, nil, err
	}
	s.store.Put(store.FinalStage, key, env.Artifact)
	c := compiledFromArtifact(a)
	c.StageHits = env.StageCache
	return c, s.acceptSimRecord(env, key), nil
}

// acceptSimRecord stores the owner's simulation record in this node's sim
// tier and returns it — only when it is the record this node would have
// stored itself: the memo key recomputed here (compile key, record format,
// sim.Version, cycle cap) equals the owner's, and the bytes pass
// checkSimRecord and decode as a sim.ResultJSON (decodeSimRecord). What is
// stored and spliced from then on is checkSimRecord's form of the bytes.
// Anything else is dropped and counted, and the request simulates locally as
// if the owner had sent no record.
func (s *Server) acceptSimRecord(env *artifactEnvelope, key string) *ownerSim {
	if env.SimKey == "" {
		return nil
	}
	memoKey := memoKeyFor(key)
	record, err := checkSimRecord(env.SimRecord)
	var result *sim.ResultJSON
	if err == nil {
		result, err = decodeSimRecord(record)
	}
	if env.SimKey != memoKey || err != nil {
		s.metrics.Add("sarad_proxy_sim_records_rejected_total", 1)
		return nil
	}
	s.store.Put(store.SimStage, memoKey, record)
	s.metrics.Add("sarad_proxy_sim_records_total", 1)
	return &ownerSim{record: record, cycles: result.Cycles, ran: env.SimRan, wall: env.SimNS}
}

// handleArtifact is the owner side of the cluster proxy protocol: compile
// the posted request (through this node's own cache, store, and
// single-flight — never proxying onward, so requests cannot loop even under
// disagreeing peer lists) and return the encoded final artifact.
//
// Artifact compiles deliberately run in the handler goroutine, NOT on the
// worker pool. A pooled job that proxies holds its worker for the whole
// round trip; if artifact requests queued behind such jobs, two nodes
// proxying to each other could each be waiting on work parked in the
// other's queue — a distributed deadlock that only the proxy timeout would
// unstick. Keeping the owner side pool-free makes the wait graph acyclic:
// requesters wait on owners, owners wait on nobody. Cluster-wide compile
// concurrency stays bounded because every remote artifact request holds a
// pool slot on its requester; a counting semaphore (workers + queue depth)
// additionally sheds pathological fan-in with 429, which the requester
// treats as a proxy failure and absorbs by compiling locally.
//
// A requester about to run a memoised simulation says so (simHeader); the
// owner then answers with the result record too — see attachSimRecord.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	spec, err := specFor(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if want := r.Header.Get("X-Sara-Key"); want != "" && want != key {
		writeError(w, http.StatusConflict,
			fmt.Errorf("content address mismatch: requester computed %s, this node %s (version skew?)", want, key))
		return
	}
	select {
	case s.artifactSem <- struct{}{}:
		defer func() { <-s.artifactSem }()
	default:
		s.metrics.Add("sarad_rejected_total", 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrSaturated)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.DefaultTimeout)
	defer cancel()

	if s.jobGate != nil {
		s.jobGate()
	}
	d, hit, _, err := s.compileForRequest(ctx, req, spec, key, proxyNone)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	c := d.c
	env := &artifactEnvelope{Key: key, CacheHit: hit, StageCache: c.StageHits}
	if r.Header.Get(simHeader) != "" && memoEligible(req) {
		s.attachSimRecord(env, c, key, arrived.Add(s.opts.ProxyTimeout/2))
	}
	env.Artifact = encodeArtifact(c)
	s.metrics.Add("sarad_artifact_served_total", 1)
	writeJSON(w, http.StatusOK, env)
}

// attachSimRecord answers the requester's simulation through this node's
// memo — a stored record, a run another ask started, or a run started now —
// and puts the record in env. It waits for a run until deadline (half this
// node's ProxyTimeout after the request arrived, so the requester's attempt
// never times out on it); past that env goes without a record, the requester
// simulates as it did before records travelled, and the run still finishes
// into this node's memo. A failed simulation ships nothing: the requester
// runs it again and answers the same error.
func (s *Server) attachSimRecord(env *artifactEnvelope, c *core.Compiled, key string, deadline time.Time) {
	memoKey := memoKeyFor(key)
	t0 := time.Now()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	ans, err := s.simulateMemo(c, memoKey, timer.C)
	if ans.ran {
		s.metrics.Add("sarad_artifact_sims_total", 1)
	}
	switch {
	case errors.Is(err, errSimBudget):
		s.metrics.Add("sarad_artifact_sim_budget_exceeded_total", 1)
	case err == nil && ans.record != nil:
		env.SimKey, env.SimRecord, env.SimRan, env.SimNS = memoKey, ans.record, ans.ran, time.Since(t0)
	}
}

// encodeArtifact is the final-artifact encoding of a compiled design: what
// the store persists and /v1/artifact ships.
func encodeArtifact(c *core.Compiled) []byte {
	return store.EncodeArtifact(&store.Artifact{
		Prog: c.Prog,
		Spec: c.Spec,
		State: &store.Snapshot{
			Plan:      c.Plan,
			Lowered:   c.Lowered,
			OptStats:  c.OptStats,
			BankStats: c.BankStats,
			PartStats: c.PartStats,
			Merged:    c.Merged,
			Placement: c.Placement,
		},
		PhaseTimes: c.PhaseTimes,
	})
}

// metricName converts a stall-cause label to a Prometheus-safe name segment.
func metricName(cause string) string {
	return strings.ReplaceAll(cause, "-", "_")
}

// workloadInfo is one entry of the /v1/workloads listing.
type workloadInfo struct {
	Name        string `json:"name"`
	Domain      string `json:"domain"`
	Control     string `json:"control"`
	MemoryBound bool   `json:"memory_bound"`
	DefaultPar  int    `json:"default_par"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var out []workloadInfo
	for _, wl := range workloads.All() {
		out = append(out, workloadInfo{
			Name:        wl.Name,
			Domain:      wl.Domain,
			Control:     wl.Control,
			MemoryBound: wl.MemoryBound,
			DefaultPar:  wl.DefaultPar,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
