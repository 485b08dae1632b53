// Package server turns the SARA batch flow into a serving subsystem: a JSON
// HTTP API (stdlib net/http only) that accepts a spatial program — inline or
// by registered workload name — plus a chip spec and compiler options, runs
// the full compile pipeline, and executes either the cycle-level or the
// analytic engine.
//
// The design leans on the flow being a deterministic pure function of
// (program, arch, options), §V of the paper: requests are canonicalized and
// SHA-256 content-addressed, and a cycle-level simulation is as pure a
// function of its design, so a design and its result are two records of one
// key. resolve finds both through the same layers — memory, the design
// store, the cluster's ring owner, compute — with one run per key: identical
// work compiles and simulates once, and a stored result is spliced into the
// response as it is. A
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
	// cluster-wide. Empty means standalone: a ring of SelfURL alone, which
	// owns every key. Every node must be given the
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
	if o.ProxyTimeout <= 0 {
		o.ProxyTimeout = 15 * time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
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
	// client; a node without peers is a ring of one that owns every key.
	cluster *cluster
	// artifactSem bounds concurrent /v1/artifact compiles (they run off the
	// worker pool — see handleArtifact); a full semaphore sheds with 429.
	artifactSem chan struct{}
	// storeErr records why Options.StoreDir could not be opened (the server
	// then runs memory-only); nil otherwise.
	storeErr error

	// flights holds the designs and results being resolved now, so
	// concurrent asks for one record share one run (see resolve).
	flights flights

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
	s.cluster = newCluster(opts, s.metrics)
	s.cluster.start()
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
		if d := s.storedDesign(key); d != nil {
			s.cache.Seed(key, d)
			warmed++
		}
	}
	return warmed
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

// Close drains in-flight and queued jobs and the runs they started, waiting
// up to ctx's deadline, then closes the design store. Call after
// http.Server.Shutdown so no new work arrives while draining.
func (s *Server) Close(ctx context.Context) error {
	s.cluster.stop()
	if err := s.pool.Shutdown(ctx); err != nil {
		return err
	}
	if err := s.flights.drain(ctx); err != nil {
		return err
	}
	return s.store.Close()
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
	// A gap without the solver, or one equal to the default, is dropped
	// before hashing: it compiles the same design as no gap.
	Solver    bool    `json:"solver,omitempty"`
	SolverGap float64 `json:"solver_gap,omitempty"`
	// SkipPlace skips placement; streams are charged the arch's default hop
	// distance.
	SkipPlace bool `json:"skip_place,omitempty"`
	// NoBanking, NoMerging, NoCreditRelaxation disable the respective passes
	// (the paper's ablations, §IV-C).
	NoBanking          bool `json:"no_banking,omitempty"`
	NoMerging          bool `json:"no_merging,omitempty"`
	NoCreditRelaxation bool `json:"no_credit_relaxation,omitempty"`
	// Opt, when present, sets the §III-C optimization flags exactly (taking
	// precedence over NoOpt, which is then dropped before hashing). The
	// autotuner's candidate requests use this to pin each point's opt set;
	// absent means the default full suite.
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

// canonical refuses options no compile accepts and returns o with every
// field cleared that cannot change the compiled design, so options that
// compile alike share one content address: a solver gap without the solver
// or equal to the default (partition.DefaultGap), and no_opt beside opt. It
// never writes o; a changed form is a copy.
func (o *CompileOptionsJSON) canonical() (*CompileOptionsJSON, error) {
	if !(o.SolverGap >= 0) {
		return nil, fmt.Errorf("solver_gap %v: want a non-negative relative gap", o.SolverGap)
	}
	dropGap := o.SolverGap != 0 && (!o.Solver || o.SolverGap == partition.DefaultGap)
	dropNoOpt := o.NoOpt && o.Opt != nil
	if !dropGap && !dropNoOpt {
		return o, nil
	}
	c := *o
	if dropGap {
		c.SolverGap = 0
	}
	if dropNoOpt {
		c.NoOpt = false
	}
	return &c, nil
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
			gap = partition.DefaultGap
		}
		cfg.UseSolver(gap)
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
		Arch:     req.chip(),
	}
	if req.Workload != "" {
		cr.Par, cr.Scale = req.Par, req.Scale
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

// normalize validates the request, fills defaults and maps compile options
// that compile alike onto one form (CompileOptionsJSON.canonical).
func (req *RunRequest) normalize() error {
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
	if req.Options != nil {
		o, err := req.Options.canonical()
		if err != nil {
			return err
		}
		req.Options = o
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
			return fmt.Errorf("tune requests cannot pick engine %q: candidates are pruned on a cycle floor and finalists validate on the event engine", req.Engine)
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

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 8 << 20

// decodeRequest reads r's body as a normalized request and derives its chip
// spec and content address, answering the error itself when one fails.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (req *RunRequest, spec *arch.Spec, key string, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return nil, nil, "", false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	req = &RunRequest{}
	err := dec.Decode(req)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else if err = req.normalize(); err == nil {
		spec, err = specFor(req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, "", false
	}
	if key, err = cacheKey(req); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, nil, "", false
	}
	return req, spec, key, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, true)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, false)
}

// serve is the shared run/compile path: decode, hash, answer from memory
// when both halves are there, else resolve on the pool.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, simulate bool) {
	req, spec, key, ok := s.decodeRequest(w, r)
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
	var resident *design
	if simulate && memoEligible(req) {
		var resp *RunResponse
		if resp, resident = s.answerFromMemory(key); resp != nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	s.runPooled(w, r, req.TimeoutMS, func(ctx context.Context) (any, int, error) {
		return s.execute(ctx, req, spec, key, simulate, resident)
	})
}

// runPooled answers r with job's outcome, run on the worker pool under the
// request's timeout (timeoutMS, at most the server default). A full pool
// sheds with 429. Past the deadline the job keeps running (compilation is not
// preemptible) and still populates the cache and the result memo; only the
// response gives up, with 504.
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, timeoutMS int, job func(context.Context) (any, int, error)) {
	timeout := s.opts.DefaultTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	type outcome struct {
		v      any
		status int
		err    error
	}
	done := make(chan outcome, 1)
	err := s.pool.Submit(func() {
		if s.jobGate != nil {
			s.jobGate()
		}
		v, status, err := job(ctx)
		done <- outcome{v, status, err}
	})
	switch {
	case errors.Is(err, ErrSaturated):
		s.shed(w, err)
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	select {
	case o := <-done:
		if o.err != nil {
			writeError(w, o.status, o.err)
			return
		}
		writeJSON(w, o.status, o.v)
	case <-ctx.Done():
		s.metrics.Add("sarad_timeouts_total", 1)
		writeError(w, http.StatusGatewayTimeout, ctx.Err())
	}
}

// shed answers 429 with Retry-After: the server is saturated.
func (s *Server) shed(w http.ResponseWriter, err error) {
	s.metrics.Add("sarad_rejected_total", 1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, err)
}

// chip returns the request's arch, or the default chip's when it names none.
func (req *RunRequest) chip() arch.SpecJSON {
	if req.Arch == nil {
		return arch.SpecJSON{}
	}
	return *req.Arch
}

func specFor(req *RunRequest) (*arch.Spec, error) {
	a := req.chip()
	return a.Spec()
}

// answerFromMemory answers a memo-eligible /v1/run whose design is in the
// LRU and whose record is in the store's memory tier, in the handler
// goroutine: it compiles nothing, reads no disk, proxies nothing and
// simulates nothing, so it holds no worker. Otherwise resp is nil, and d is
// the LRU's design, if it had one, for the pooled job to resolve from
// without looking it up again.
func (s *Server) answerFromMemory(key string) (resp *RunResponse, d *design) {
	t0 := time.Now()
	if d = s.cache.Get(key); d == nil {
		return nil, nil
	}
	s.cache.count(true)
	r := resolved{d: d, compileWall: time.Since(t0)}
	st := s.store.Stats()
	r.stats = &st
	t1 := time.Now()
	var ok bool
	if r.record, ok = s.store.Cached(store.SimStage, memoKeyFor(key)); !ok {
		return nil, d
	}
	r.simWall = time.Since(t1)
	s.metrics.Add("sarad_cache_hits_total", 1)
	s.metrics.Add("sarad_sim_memo_hits_total", 1)
	s.metrics.Add("sarad_sim_requests_total", 1)
	return respond(&r), d
}

// execute runs inside a pool worker: resolve the design — from resident
// when the handler already found it in the LRU — and, for a memo-eligible
// /v1/run, its result; the memo's three bypasses run their engine here.
func (s *Server) execute(ctx context.Context, req *RunRequest, spec *arch.Spec, key string, simulate bool, resident *design) (*RunResponse, int, error) {
	if err := jobAbandoned(ctx); err != nil {
		return nil, http.StatusGatewayTimeout, err
	}
	memo := simulate && memoEligible(req)
	r, err := s.resolve(ctx, req, spec, key, want{result: memo, proxy: true, resident: resident})
	if r.d == nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if r.design == fromMemory {
		s.metrics.Add("sarad_cache_hits_total", 1)
	} else {
		s.metrics.Add("sarad_cache_misses_total", 1)
	}
	var rec *profile.Recording
	if err == nil && simulate && !memo {
		if err = jobAbandoned(ctx); err == nil {
			r.simulated, rec, err = s.runEngine(r.d.c, req.Engine == "analytic", req.Profile)
		}
	}
	if errors.Is(err, context.Canceled) {
		return nil, http.StatusGatewayTimeout, err
	} else if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if simulate {
		s.metrics.Add("sarad_sim_requests_total", 1)
	}
	resp := respond(&r)
	if rec != nil {
		rep := profile.Analyze(rec)
		// The refined causes (upstream vs DRAM, token vs credit, output)
		// exist only on profiled runs, so these counters split the profiled
		// subset of the coarse ones runEngine keeps; both engines would
		// record the same ones.
		for cause, n := range rep.StallsByCause {
			s.metrics.Add("sarad_sim_profiled_stall_cycles_"+metricName(cause)+"_total", n)
		}
		s.metrics.Add("sarad_sim_profiled_requests_total", 1)
		resp.Profile = rep.JSON()
	}
	return resp, http.StatusOK, nil
}

// respond is the answer naming r's design: its compile half, where this
// request found it and how long that took, the store as the design half left
// it, and the result when r has one.
func respond(r *resolved) *RunResponse {
	resp := new(RunResponse)
	*resp = r.d.resp
	resp.CacheHit, resp.StoreHit = r.design == fromMemory, r.design == fromStore
	resp.Proxied, resp.ProxyOwner = r.design == fromOwner, r.owner
	resp.CompileMS = msOf(r.compileWall)
	resp.Store = r.stats
	if r.record != nil {
		resp.setSim(r.record, r.cycles, !r.ran, r.simWall)
	}
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

// runEngine simulates c on the analytic model or the event engine — with
// the profiler when profiled — and encodes the record. It counts the run on
// this node: memo hits and records taken from the cluster owner do not come
// here, so sarad_sim_seconds, sarad_cycles_simulated_total and the stall
// counters count each run once, on the node that ran it.
func (s *Server) runEngine(c *core.Compiled, analytic, profiled bool) (simulated, *profile.Recording, error) {
	t0 := time.Now()
	d := c.Design()
	var (
		result *sim.Result
		rec    *profile.Recording
		err    error
	)
	switch {
	case analytic:
		result, err = sim.Analytic(d)
	case profiled:
		result, rec, err = sim.CycleProfiled(d, simMaxCycles, sim.EngineEvent)
	default:
		result, err = sim.CycleEngine(d, simMaxCycles, sim.EngineEvent)
	}
	if err != nil {
		return simulated{}, nil, err
	}
	s.metrics.Observe("sarad_sim_seconds", time.Since(t0).Seconds())
	s.metrics.Add("sarad_cycles_simulated_total", result.Cycles)
	// Per-cause stall counters come from every cycle-level run; a scrape sees
	// where the fleet's simulated cycles are going, not just how many ran.
	for cause, n := range result.Stalls {
		s.metrics.Add("sarad_sim_stall_cycles_"+metricName(cause)+"_total", n)
	}
	record, err := encodeResult(result, d.Spec)
	return simulated{record: record, ran: true, cycles: result.Cycles, simWall: time.Since(t0)}, rec, err
}

// handleArtifact is the owner side of the cluster proxy protocol: resolve
// the posted request's design (through this node's own LRU, store and flight
// table — never proxying onward, so requests cannot loop even under
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
// owner then resolves the result too and answers with its record. It waits
// for a run until half its ProxyTimeout after the ask arrived, so the
// requester's attempt never times out on it; past that the envelope goes
// without a record, the requester simulates itself, and the run still
// finishes into this node's memo. A failed simulation ships nothing: the
// requester runs it again and answers the same error.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	req, spec, key, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if theirs := r.Header.Get("X-Sara-Key"); theirs != "" && theirs != key {
		writeError(w, http.StatusConflict,
			fmt.Errorf("content address mismatch: requester computed %s, this node %s (version skew?)", theirs, key))
		return
	}
	select {
	case s.artifactSem <- struct{}{}:
		defer func() { <-s.artifactSem }()
	default:
		s.shed(w, ErrSaturated)
		return
	}
	if s.jobGate != nil {
		s.jobGate()
	}
	// The owner finishes both halves for a requester that hung up: its
	// retry, or the next ask, finds them here.
	ctx := context.WithoutCancel(r.Context())
	ask := want{result: r.Header.Get(simHeader) != "" && memoEligible(req)}
	if ask.result {
		timer := time.NewTimer(time.Until(arrived.Add(s.opts.ProxyTimeout / 2)))
		defer timer.Stop()
		ask.wait = timer.C
	}
	res, err := s.resolve(ctx, req, spec, key, ask)
	if res.d == nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	c := res.d.c
	env := &artifactEnvelope{Key: key, CacheHit: res.design == fromMemory, StageCache: c.StageHits}
	if res.ran {
		s.metrics.Add("sarad_artifact_sims_total", 1)
	}
	switch {
	case errors.Is(err, errSimBudget):
		s.metrics.Add("sarad_artifact_sim_budget_exceeded_total", 1)
	case err == nil && res.record != nil:
		env.SimKey, env.SimRecord, env.SimRan, env.SimNS = memoKeyFor(key), res.record, res.ran, res.simWall
	}
	env.Artifact = store.EncodeArtifact(c.Artifact())
	s.metrics.Add("sarad_artifact_served_total", 1)
	writeJSON(w, http.StatusOK, env)
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
