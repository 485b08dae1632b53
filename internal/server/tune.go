package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/tune"
)

// TuneParamsJSON is the wire form of an autotuner search: the design-space
// axes plus search bounds. Empty axes keep the base value (arch knobs), the
// workload's paper default (pars), or the full optimization suite (opts).
type TuneParamsJSON struct {
	Pars []int `json:"pars,omitempty"`
	// Opts lists named optimization sets (see tune.NamedOptSets).
	Opts         []string `json:"opts,omitempty"`
	NumPCU       []int    `json:"num_pcu,omitempty"`
	NumPMU       []int    `json:"num_pmu,omitempty"`
	NumAG        []int    `json:"num_ag,omitempty"`
	DRAMChannels []int    `json:"dram_channels,omitempty"`
	Rows         []int    `json:"rows,omitempty"`
	Cols         []int    `json:"cols,omitempty"`
	StreamDepths []int    `json:"stream_depths,omitempty"`
	// Slack overrides the workload's documented analytic/event ratio ceiling.
	Slack float64 `json:"slack,omitempty"`
	// MaxPoints lowers the server's space-size cap for this request.
	MaxPoints int `json:"max_points,omitempty"`
	// BaselinePar overrides the reference configuration's parallelization.
	BaselinePar int `json:"baseline_par,omitempty"`
}

func (t *TuneParamsJSON) space() (tune.Space, error) {
	var opts []tune.OptSet
	for _, name := range t.Opts {
		s, err := tune.OptSetByName(name)
		if err != nil {
			return tune.Space{}, err
		}
		opts = append(opts, s)
	}
	return tune.Space{
		Pars: t.Pars, Opts: opts,
		NumPCU: t.NumPCU, NumPMU: t.NumPMU, NumAG: t.NumAG,
		DRAMChannels: t.DRAMChannels, Rows: t.Rows, Cols: t.Cols,
		StreamDepths: t.StreamDepths,
	}, nil
}

// candidateRequest derives the RunRequest one tune candidate compiles as:
// the original request's workload and base arch with the point's knobs
// overlaid, the point's exact optimization flags, and placement skipped —
// precisely the configuration tune.Run would compile directly. Because the
// derived request is canonical, candidates content-address into the same
// cache/store/cluster namespace as ordinary requests: a design another
// request (or another node) already compiled is reused, and designs this
// search compiles warm the cache for later requests.
func candidateRequest(req *RunRequest, p tune.Point, scale int) *RunRequest {
	aj := arch.SpecJSON{}
	if req.Arch != nil {
		aj = *req.Arch
	}
	if p.NumPCU != 0 {
		aj.NumPCU = p.NumPCU
	}
	if p.NumPMU != 0 {
		aj.NumPMU = p.NumPMU
	}
	if p.NumAG != 0 {
		aj.NumAG = p.NumAG
	}
	if p.DRAMChannels != 0 {
		aj.DRAMChannels = p.DRAMChannels
	}
	if p.Rows != 0 {
		aj.Rows = p.Rows
	}
	if p.Cols != 0 {
		aj.Cols = p.Cols
	}
	if p.StreamDepth != 0 {
		aj.StreamDepth = p.StreamDepth
	}
	o := p.Opt.Opts
	return &RunRequest{
		Workload: req.Workload,
		Par:      p.Par,
		Scale:    scale,
		Arch:     &aj,
		Options: &CompileOptionsJSON{
			SkipPlace: true,
			Opt: &OptTogglesJSON{
				MSR: o.MSR, RtElm: o.RtElm, Retime: o.Retime,
				RetimeMem: o.RetimeMem, XbarElm: o.XbarElm,
			},
		},
	}
}

// serveTune runs a design-space search as one pooled job. The search fans
// candidate compiles across its own deterministic worker pool, but each
// candidate's design resolves through resolve — LRU, flight table,
// persistent store, and (in cluster mode) the ring owner — so the request
// holds exactly one worker slot while reusing every layer of the serving
// hierarchy. The search itself is bit-identical to cmd/saratune on the same
// space: only wall-clock and cache-traffic fields differ.
func (s *Server) serveTune(w http.ResponseWriter, r *http.Request, req *RunRequest, base *arch.Spec) {
	space, err := req.Tune.space()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxPoints := s.opts.TuneMaxPoints
	if req.Tune.MaxPoints > 0 && req.Tune.MaxPoints < maxPoints {
		maxPoints = req.Tune.MaxPoints
	}
	if sz := space.Size(); sz > maxPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("tune space has %d points, this server caps searches at %d", sz, maxPoints))
		return
	}
	s.runPooled(w, r, req.TimeoutMS, func(ctx context.Context) (any, int, error) {
		s.metrics.Add("sarad_tune_requests_total", 1)
		t0 := time.Now()
		result, err := tune.Run(tune.Options{
			Workload:    req.Workload,
			Scale:       req.Scale,
			Space:       space,
			Base:        base,
			BaselinePar: req.Tune.BaselinePar,
			Slack:       req.Tune.Slack,
			Workers:     s.opts.Workers,
			MaxPoints:   maxPoints,
			Store:       s.store,
			Compile: func(p tune.Point, prog *ir.Program, cfg core.Config) (*core.Compiled, error) {
				dreq := candidateRequest(req, p, req.Scale)
				key, err := cacheKey(dreq)
				if err != nil {
					return nil, err
				}
				r, err := s.resolve(ctx, dreq, cfg.Spec, key, want{proxy: true})
				if err != nil {
					return nil, err
				}
				return r.d.c, nil
			},
		})
		s.metrics.Observe("sarad_tune_seconds", time.Since(t0).Seconds())
		if err != nil {
			s.metrics.Add("sarad_tune_errors_total", 1)
			return nil, http.StatusUnprocessableEntity, err
		}
		s.metrics.Add("sarad_tune_points_explored_total", int64(result.Stats.Explored))
		s.metrics.Add("sarad_tune_points_pruned_total", int64(result.Stats.PrunedDominated+result.Stats.Unfit))
		s.metrics.Add("sarad_tune_points_validated_total", int64(result.Stats.Validated))
		s.metrics.Add("sarad_tune_cycle_sims_total", int64(result.Stats.CycleSims))
		return result, http.StatusOK, nil
	})
}
