package core

import (
	"time"

	"sara/internal/arch"
	"sara/internal/ir"
	"sara/internal/store"
)

// StageNames lists the compile pipeline stages in execution order ("place"
// is absent from a SkipPlace compile).
var StageNames = []string{
	"consistency", "lower", "opt-early", "membank",
	"partition", "opt-late", "merge", "place",
}

// stageKeys derives the per-stage content addresses for (prog, cfg). Each
// stage's key hashes the previous stage's key plus exactly the state that
// stage reads: the relevant program digest, its own options, and the
// arch.Spec fields it consumes — nothing else, so an untouched knob can
// never spoil a prefix. Notes on deliberate choices:
//
//   - consistency hashes the PAR-FREE program digest: the CMMC analysis
//     never reads Ctrl.Par, so a par-factor sweep reuses its plan. Every
//     later stage hashes the full digest — lowering really does vectorize
//     and spatially unroll by Par, so the lowered graph legitimately
//     changes. The par-sweep win downstream of lower comes from the
//     partition/merge instance memo (partition.RunInstance), which
//     content-addresses the par-invariant solver instances.
//   - partition and merge keys exclude Workers, which nothing reads.
//   - a value a stage takes from the spec (membank's merge-tree fan-in is
//     PCU.MaxIn) is covered by hashing that spec field.
//
// TestStageKeysCoverConfig holds every Config option field to some key.
func stageKeys(progPar, progNoPar string, cfg *Config) map[string]string {
	spec := cfg.Spec
	keys := make(map[string]string, len(StageNames))

	k := store.NewHasher("consistency", "").
		Str(progNoPar).
		Bool(cfg.Consistency.DisableReduction).
		Bool(cfg.Consistency.DisableCreditRelaxation).
		Sum()
	keys["consistency"] = k

	k = store.NewHasher("lower", k).
		Str(progPar).
		Int(spec.PCU.Lanes).
		Int(spec.PMU.Lanes).
		Sum()
	keys["lower"] = k

	k = store.NewHasher("opt-early", k).
		Bool(cfg.Opt.MSR).
		Bool(cfg.Opt.RtElm).
		Sum()
	keys["opt-early"] = k

	k = store.NewHasher("membank", k).
		Bool(cfg.Membank.DisableBanking).
		Int(spec.PCU.MaxIn).
		I64(spec.PMU.ScratchElems).
		Sum()
	keys["membank"] = k

	k = store.NewHasher("partition", k).
		Int(int(cfg.Partition.Algo)).
		F64(cfg.Partition.Gap).
		Int(cfg.Partition.MaxNodes).
		Dur(cfg.Partition.TimeLimit).
		Sum()
	keys["partition"] = k

	k = store.NewHasher("opt-late", k).
		Bool(cfg.Opt.Retime).
		Bool(cfg.Opt.RetimeMem).
		Bool(cfg.Opt.XbarElm).
		Int(spec.PMU.InBufDepth).
		Sum()
	keys["opt-late"] = k

	hm := store.NewHasher("merge", k).
		Int(int(cfg.Merge.Algo)).
		F64(cfg.Merge.Gap).
		Int(cfg.Merge.MaxNodes).
		Dur(cfg.Merge.TimeLimit).
		Bool(cfg.Merge.DisableMerging)
	hashPUSpec(hm, spec.PCU)
	hashPUSpec(hm, spec.PMU)
	k = hm.Sum()
	keys["merge"] = k

	k = store.NewHasher("place", k).
		I64(cfg.Place.Seed).
		Int(cfg.Place.Iters).
		Int(spec.Rows).
		Int(spec.Cols).
		Int(spec.NumPCU).
		Int(spec.NumPMU).
		Int(spec.NumAG).
		Int(spec.NetHopLatencyCycles).
		Int(spec.LinkLanes).
		Sum()
	keys["place"] = k

	return keys
}

func hashPUSpec(h *store.Hasher, p arch.PUSpec) {
	h.Int(int(p.Type)).
		Int(p.Lanes).
		Int(p.Stages).
		Int(p.MaxIn).
		Int(p.MaxOut).
		Int(p.InBufDepth).
		I64(p.ScratchElems).
		Int(p.MaxCounters)
}

// snapshot captures the current pipeline state of c.
func (c *Compiled) snapshot() *store.Snapshot {
	return &store.Snapshot{
		Plan:      c.Plan,
		Lowered:   c.Lowered,
		OptStats:  c.OptStats,
		BankStats: c.BankStats,
		PartStats: c.PartStats,
		Merged:    c.Merged,
		Placement: c.Placement,
	}
}

// applySnapshot replaces c's pipeline state with a decoded snapshot.
func (c *Compiled) applySnapshot(s *store.Snapshot) {
	c.Plan = s.Plan
	c.Lowered = s.Lowered
	c.OptStats = s.OptStats
	c.BankStats = s.BankStats
	c.PartStats = s.PartStats
	c.Merged = s.Merged
	c.Placement = s.Placement
}

// Artifact is c's final-artifact form: what the design store persists under
// a request's content address and what a cluster owner ships to a peer.
func (c *Compiled) Artifact() *store.Artifact {
	return &store.Artifact{Prog: c.Prog, Spec: c.Spec, State: c.snapshot(), PhaseTimes: c.PhaseTimes}
}

// FromArtifact rehydrates a decoded final artifact. The codec round-trip is
// bit-exact (see internal/store), so a design restored here simulates
// cycle-for-cycle like the compile that produced it.
func FromArtifact(a *store.Artifact) *Compiled {
	c := &Compiled{Prog: a.Prog, Spec: a.Spec, PhaseTimes: a.PhaseTimes}
	c.applySnapshot(a.State)
	return c
}

// compileIncremental is the memoized pipeline driver: it derives every
// stage's content key, restores the deepest snapshot the store holds, and
// runs only the steps past it, persisting a snapshot after each one. cfg is
// the Config steps read. Output is bit-identical to the cold driver — the
// equivalence suite in incremental_test.go holds it to that across every
// workload family.
func compileIncremental(prog *progCtx, cfg *Config, steps []step, c *Compiled) error {
	memo := cfg.Memo
	// Thread the solver-instance memo into the passes that solve instances;
	// it fires even when a stage itself must re-run (e.g. partition after a
	// par change regenerates the same par-invariant instances).
	cfg.Partition.Cache = memo
	cfg.Merge.Cache = memo

	keys := stageKeys(prog.digestPar, prog.digestNoPar, cfg)
	c.StageHits = make(map[string]bool, len(steps))

	// Find the deepest stored snapshot. Each probe records a per-stage
	// hit/miss in the store's counters; stages shallower than the restore
	// point are probed too so the counters reflect the full logical prefix
	// reuse, not just the single snapshot actually read.
	restored := -1
	t0 := time.Now()
	for i := len(steps) - 1; i >= 0; i-- {
		data, ok := memo.Get(steps[i].name, keys[steps[i].name])
		if !ok {
			continue
		}
		snap, err := store.DecodeSnapshot(data, prog.prog)
		if err != nil {
			// Corrupt or foreign entry: fall through to shallower stages.
			continue
		}
		c.applySnapshot(snap)
		restored = i
		for j := i - 1; j >= 0; j-- {
			memo.Probe(steps[j].name, keys[steps[j].name])
			c.StageHits[steps[j].name] = true
		}
		c.StageHits[steps[i].name] = true
		break
	}
	if restored >= 0 {
		c.PhaseTimes["restore"] = time.Since(t0)
	}

	for _, st := range steps[restored+1:] {
		if err := c.run(st); err != nil {
			return err
		}
		c.StageHits[st.name] = false
		memo.Put(st.name, keys[st.name], store.EncodeSnapshot(c.snapshot()))
	}
	return nil
}

// progCtx bundles a program with its canonical digests so they are computed
// once per compile.
type progCtx struct {
	prog        *ir.Program
	digestPar   string
	digestNoPar string
}
