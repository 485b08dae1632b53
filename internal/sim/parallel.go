package sim

// The parallel conservative discrete-event engine. One cycle-level
// simulation is cut into shards that advance on worker goroutines under
// conservative time windows; the serial event engine (event.go) is reused
// verbatim as the per-shard executor, which is what makes the engine
// bit-identical to EngineEvent at any GOMAXPROCS and worker count.
//
// Design (see DESIGN.md "Parallel simulation" for the full safety argument):
//
//   - Sharding. The unit graph is partitioned with the compiler's own
//     traversal partitioner (internal/partition) over firing-count weights,
//     then the topo-ordered parts are folded into nShards contiguous groups.
//     nShards is a pure function of the design — workers only decide which
//     goroutine executes which shard — so execution order inside every shard
//     is identical no matter how many cores run it.
//   - Cut edges. Every edge crossing a shard boundary is split in two: the
//     destination shard keeps the original edgeState (so consumer-side
//     occupancy and delivery timing are exact), and the source shard gets a
//     mirror that tracks occupancy/in-flight exactly as the serial engine
//     would (its own in-flight ring and arrival events; pops applied at
//     barriers). The halves are linked by an xlink carrying the in-window
//     cross traffic: arrivals the source scheduled (msgs) and elements the
//     destination popped (popN), both drained single-threaded inside the
//     barrier.
//   - Conservative windows. At each barrier the reducer picks T = the
//     earliest pending event on any shard and a width W bounded by (a) the
//     minimum cut-edge lookahead — source pipeline delay plus stream latency
//     — so no in-window push can arrive before the window ends, and (b) a
//     per-cut-edge space budget — with s free slots and at most one push per
//     `period` cycles, W ≤ (s-1)·period+1 keeps space ≥ 1 at every in-window
//     enable check, so a producer can never observe (or miss) back-pressure
//     that the serial engine would have resolved with a consumer-side pop.
//     Within [T, T+W) every shard therefore executes exactly its serial
//     event sequence with no shared state.
//   - Serial fallback. When no safe width exists (a cut edge is full, W=0),
//     the reducer executes one exact global cycle itself: a merged
//     ascending-unit-ID scan across all shards with cross-shard pops applied
//     immediately under the serial same-cycle visibility rule (a pop by unit
//     j wakes a waiting source i in the same cycle only if i > j). This is
//     the serial engine's intra-cycle order, so full edges — the one case
//     windows cannot handle — degrade to correct serial execution instead of
//     divergence.
//   - Null-message-free barriers. Shards synchronize on a sense-reversing
//     spin barrier; the last arriver runs the reducer (drain cross traffic,
//     detect completion/deadlock, plan the next window) while the others
//     spin. There are no per-neighbor null messages: lookahead is applied
//     globally at the barrier.

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sara/internal/dfg"
	"sara/internal/partition"
	"sara/internal/profile"
)

const (
	// parUnitsPerShard sets the shard count: one shard per ~16 live units,
	// clamped to [2, parMaxShards]. Small enough shards keep windows busy;
	// too many shards multiply cut edges and shrink the safe window width.
	parUnitsPerShard = 16
	parMaxShards     = 8
)

// xlink ties the two halves of a cut edge together and buffers the
// cross-shard traffic of one window.
type xlink struct {
	src                *edgeState // mirror half, owned by the source shard
	dst                *edgeState // original edgeState, owned by the destination shard
	srcShard, dstShard int
	// lookahead is the minimum number of cycles between a push decision on
	// the source shard and the arrival's delivery: source pipeline delay
	// plus the stream's network latency (≥ 1 by construction).
	lookahead int64
	// period is the minimum spacing in cycles between consecutive pushes on
	// this edge: counter-wrap pushes at level l are Π_{j≥l} trips apart,
	// everything else pushes at most once per cycle.
	period int64
	// rate is the maximum pushes in a single cycle: a merge node forwards up
	// to its fan-in elements per cycle onto one output; everything else 1.
	rate int
	// msgs and popN buffer the window's cross traffic. The producing worker
	// appends during its window; the reducer drains both inside the barrier,
	// so all access is ordered by the barrier's atomics.
	msgs []int64 // arrival cycles, one per element
	popN int
}

// parShard is one shard: a cycleSim view (own edges table, hooks, and
// counters over the shared unit states) driven by its own eventSim.
type parShard struct {
	cs *cycleSim
	ev *eventSim
}

// spinBarrier is a sense-reversing barrier. The last arriver runs a
// reduction while the rest spin on the generation word; Gosched in the spin
// loop keeps GOMAXPROCS=1 runs live.
type spinBarrier struct {
	n      int32
	count  atomic.Int32
	gen    atomic.Uint32
	waitNs atomic.Int64
}

func (b *spinBarrier) arrive(reduce func()) {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		reduce()
		b.gen.Add(1)
		return
	}
	t0 := time.Now()
	for b.gen.Load() == g {
		runtime.Gosched()
	}
	b.waitNs.Add(time.Since(t0).Nanoseconds())
}

type parSim struct {
	d         *Design
	parent    *cycleSim // canonical state for deadlock reports and the final Result
	shards    []*parShard
	links     []*xlink
	owner     []int // unit ID -> shard
	chanOwner []int // DRAM channel -> shard (its address generators' home)
	workers   int
	maxCycles int64

	bar spinBarrier
	// All fields below are only written by the reducer (inside the barrier)
	// and read by workers after its release, so they need no extra locking.
	started              bool
	serial               bool // a merged-serial cycle is executing
	cursor               int  // global ascending-ID position during a serial cycle
	planStart, planLimit int64
	finished             bool
	cycles               int64
	err                  error
	stats                ParStats
	actedBuf             []bool
}

// CycleParallel runs the sharded conservative engine. workers ≤ 0 selects
// GOMAXPROCS; the worker count is capped at the shard count. Results are
// bit-identical to EngineEvent for every design and worker count.
func CycleParallel(d *Design, maxCycles int64, workers int) (*Result, error) {
	ps, err := newParSim(d, maxCycles, workers)
	if err != nil {
		return nil, err
	}
	return ps.run()
}

func newParSim(d *Design, maxCycles int64, workers int) (*parSim, error) {
	parent, err := newCycleSim(d)
	if err != nil {
		return nil, err
	}
	if maxCycles <= 0 {
		maxCycles = 200_000_000
	}
	live := d.G.LiveVUs()
	nShards := len(live) / parUnitsPerShard
	if nShards < 2 {
		nShards = 2
	}
	if nShards > parMaxShards {
		nShards = parMaxShards
	}
	if len(live) < 2 {
		nShards = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Never shard finer than the worker count: extra shards add cut edges and
	// shrink windows without adding any concurrency, and at workers=1 the
	// single shard degenerates to one full-run window — the plain event
	// engine plus one barrier pass, so requesting the parallel engine on a
	// serial machine costs (almost) nothing.
	if nShards > workers {
		nShards = workers
	}
	owner := shardUnits(parent, d, live, nShards)

	// Clustering may leave some of the requested shards empty (in the limit,
	// one inseparable cluster owns everything). Compress the used ids to a
	// dense 0..K-1 range — ascending, so the topo-contiguous fold order is
	// preserved — and report K as the shard count.
	used := make([]int, nShards)
	for i := range used {
		used[i] = -1
	}
	nUsed := 0
	for s := 0; s < nShards; s++ {
		for _, u := range live {
			if owner[u.ID] == s {
				used[s] = nUsed
				nUsed++
				break
			}
		}
	}
	for _, u := range live {
		owner[u.ID] = used[owner[u.ID]]
	}
	nShards = nUsed
	if nShards < 1 {
		nShards = 1
	}

	// Address generators sharing a DRAM channel land on one shard (shardUnits
	// clusters them): the memory model's request path mutates per-channel
	// state without locks, so the channel's home shard is its only writer.
	chanOwner := make([]int, parent.dram.Channels())
	chanSeen := make([]bool, parent.dram.Channels())
	for _, u := range live {
		if u.Kind != dfg.VAG {
			continue
		}
		ch := parent.vus[u.ID].agChan
		if !chanSeen[ch] {
			chanSeen[ch] = true
			chanOwner[ch] = owner[u.ID]
		}
	}

	if workers > nShards {
		workers = nShards
	}
	ps := &parSim{
		d: d, parent: parent, owner: owner, chanOwner: chanOwner,
		workers: workers, maxCycles: maxCycles, cursor: -1,
		actedBuf: make([]bool, nShards),
	}

	// Split every cut edge: mirror on the source shard, original on the
	// destination shard, and rewire the source unit's out-edge pointers to
	// the mirror so its enable checks and pushes stay shard-local.
	shardEdges := make([][]*edgeState, nShards)
	for s := range shardEdges {
		shardEdges[s] = append([]*edgeState(nil), parent.edges...)
	}
	for _, e := range d.G.LiveEdges() {
		so, do := owner[e.Src], owner[e.Dst]
		if so == do {
			continue
		}
		es := parent.edges[e.ID]
		svs := parent.vus[e.Src]
		x := &xlink{dst: es, srcShard: so, dstShard: do}
		x.lookahead = srcPushDelay(parent, svs) + es.latency
		x.period, x.rate = pushCadence(svs, es)
		m := &edgeState{e: es.e, occ: es.occ, cap: es.cap, latency: es.latency, x: x,
			ring: make([]int64, len(es.ring))}
		x.src = m
		es.x = x
		shardEdges[so][e.ID] = m
		rewireOut(svs, es, m)
		ps.links = append(ps.links, x)
	}

	ps.shards = make([]*parShard, nShards)
	for s := 0; s < nShards; s++ {
		scs := &cycleSim{d: parent.d, dram: parent.dram, vus: parent.vus, edges: shardEdges[s]}
		owned := make([]bool, len(parent.vus))
		for id, vs := range parent.vus {
			if vs != nil && owner[id] == s {
				owned[id] = true
			}
		}
		ev := newEventSim(scs, owned)
		scs.onSchedule = func(es *edgeState, at int64) {
			if x := es.x; x != nil && es == x.src {
				x.msgs = append(x.msgs, at)
			}
			ev.onSchedule(es, at)
		}
		scs.onPop = func(es *edgeState, n int) {
			if x := es.x; x != nil && es == x.dst {
				// The space this pop frees lives on another shard. Windowed
				// execution defers it to the barrier; a merged-serial cycle
				// applies it immediately under the serial visibility rule.
				if ps.serial {
					ps.crossPopNow(x, n)
				} else {
					x.popN += n
				}
				return
			}
			ev.onPop(es, n)
		}
		ev.seedWakes()
		ps.shards[s] = &parShard{cs: scs, ev: ev}
	}
	ps.stats = ParStats{Shards: nShards, Workers: workers, CutEdges: len(ps.links)}
	return ps, nil
}

// srcPushDelay returns the minimum pipeline delay between a unit deciding to
// push and the element entering the network — the unit-side share of an
// edge's lookahead.
func srcPushDelay(cs *cycleSim, vs *vuState) int64 {
	switch vs.u.Kind {
	case dfg.VMU:
		return int64(cs.d.Spec.PMU.Stages)
	case dfg.VCUMerge, dfg.VCURetime, dfg.VCUSync:
		return 1
	case dfg.VAG:
		return 1 // a DRAM response is never ready before now+1
	default:
		return int64(vs.u.Stages)
	}
}

// pushCadence returns the minimum cycle spacing between pushes on es and the
// maximum pushes per cycle, from the source unit's semantics. Must be called
// before rewireOut (it searches the original pointer).
func pushCadence(vs *vuState, es *edgeState) (period int64, rate int) {
	period, rate = 1, 1
	switch vs.u.Kind {
	case dfg.VCUMerge:
		if n := len(vs.inFire); n > 1 {
			rate = n
		}
	case dfg.VMU, dfg.VCURetime, dfg.VCUSync:
	default:
		// Counter-driven: a push at wrap level l happens once per full cycle
		// of levels l..innermost, and firings are at most one per cycle.
		for l := len(vs.pushAt) - 1; l >= 0; l-- {
			for _, p := range vs.pushAt[l] {
				if p == es {
					q := int64(1)
					for j := l; j < len(vs.u.Counters); j++ {
						q *= int64(vs.u.Counters[j].Trip)
					}
					if q > period {
						period = q
					}
					return
				}
			}
		}
	}
	return
}

// rewireOut replaces every out-edge reference old with new in the source
// unit's wiring (per-firing outs, wrap-level outs, VMU port outs).
func rewireOut(vs *vuState, old, mirror *edgeState) {
	repl := func(l []*edgeState) {
		for i, p := range l {
			if p == old {
				l[i] = mirror
			}
		}
	}
	repl(vs.outFire)
	for _, l := range vs.pushAt {
		repl(l)
	}
	for _, p := range vs.ports {
		repl(p.outs)
	}
}

// clusterHeadroomMax marks an edge "tight": with at most this much free
// space above its initial occupancy, the edge spends most of the run at or
// near full, so cutting it would push the engine into the W=0 merged-serial
// fallback almost every window. Tight edges (and all token/credit loops,
// which idle at full credit occupancy by design) keep both endpoints in one
// cluster; only deep data streams are eligible for the cut.
const clusterHeadroomMax = 8

// shardUnits assigns every live unit to a shard. Units are first fused into
// clusters that must not be separated — endpoints of token, loop-carried,
// and tight (low-headroom) edges, plus address generators sharing a DRAM
// channel — then the traversal partitioner groups the clusters over
// firing-count weights on the forward-DAG skeleton, and the topo-ordered
// parts are folded into nShards contiguous groups of roughly equal weight.
// Deterministic for a given design.
func shardUnits(parent *cycleSim, d *Design, live []*dfg.VU, nShards int) []int {
	owner := make([]int, len(d.G.VUs))
	if nShards <= 1 || len(live) < 2 {
		return owner
	}
	idx := make(map[dfg.VUID]int, len(live))
	w := make([]int, len(live))
	var totF int64
	for i, u := range live {
		idx[u.ID] = i
		f := u.Firings()
		if f < 1 {
			f = 1
		}
		totF += f
	}
	totW := 0
	for i, u := range live {
		f := u.Firings()
		if f < 1 {
			f = 1
		}
		w[i] = int(f*9000/totF) + 1
		totW += w[i]
	}

	// Union-find with minimum-index roots, so cluster numbering below is a
	// pure function of the design.
	uf := make([]int, len(live))
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for uf[i] != i {
			uf[i] = uf[uf[i]]
			i = uf[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		uf[rb] = ra
	}
	for _, e := range d.G.LiveEdges() {
		si, oks := idx[e.Src]
		di, okd := idx[e.Dst]
		if !oks || !okd {
			continue
		}
		es := parent.edges[e.ID]
		if e.LCD || e.Kind == dfg.EToken || es.cap-es.e.Init <= clusterHeadroomMax {
			union(si, di)
		}
	}
	firstVAG := map[int]int{}
	for i, u := range live {
		if u.Kind == dfg.VAG {
			ch := parent.vus[u.ID].agChan
			if j, ok := firstVAG[ch]; ok {
				union(i, j)
			} else {
				firstVAG[ch] = i
			}
		}
	}
	clusterOf := make([]int, len(live))
	nClusters := 0
	rootC := map[int]int{}
	for i := range live {
		r := find(i)
		c, ok := rootC[r]
		if !ok {
			c = nClusters
			nClusters++
			rootC[r] = c
		}
		clusterOf[i] = c
	}
	if nClusters < 2 {
		return owner // one inseparable cluster: everything on shard 0
	}
	cw := make([]int, nClusters)
	for i := range live {
		cw[clusterOf[i]] += w[i]
	}

	// Order clusters by the earliest topological position of a member, so
	// inter-cluster edges restricted to that order form the partitioner's DAG.
	// The order is computed here rather than via Graph.TopoSort: that Kahn
	// walk seeds its frontier from a map and so permutes ties run-to-run,
	// and the shard cut must be a pure function of the design. Index-ordered
	// selection breaks ties by live position; a unit-level cycle (e.g. a
	// round trip through a multi-port VMU, legal at slot granularity)
	// force-emits the lowest-index remaining unit, which only costs ordering
	// quality, never correctness.
	pos := topoPositions(live, idx, d)
	minPos := make([]int, nClusters)
	for c := range minPos {
		minPos[c] = 1 << 30
	}
	for i := range live {
		if p := pos[i]; p < minPos[clusterOf[i]] {
			minPos[clusterOf[i]] = p
		}
	}
	seq := make([]int, nClusters) // instance node -> cluster
	for c := range seq {
		seq[c] = c
	}
	sort.SliceStable(seq, func(a, b int) bool { return minPos[seq[a]] < minPos[seq[b]] })
	node := make([]int, nClusters) // cluster -> instance node
	for n, c := range seq {
		node[c] = n
	}

	in := &partition.Instance{
		N:      nClusters,
		Ops:    make([]int, nClusters),
		MaxIn:  nClusters + len(d.G.Edges),
		MaxOut: nClusters + len(d.G.Edges),
	}
	maxW := 0
	for c, cwc := range cw {
		in.Ops[node[c]] = cwc
		if cwc > maxW {
			maxW = cwc
		}
	}
	in.MaxOps = totW*12/(nShards*10) + 1
	if maxW > in.MaxOps {
		in.MaxOps = maxW
	}
	seen := map[[2]int]bool{}
	for _, e := range d.G.LiveEdges() {
		si, oks := idx[e.Src]
		di, okd := idx[e.Dst]
		if !oks || !okd || e.LCD {
			continue
		}
		a, b := node[clusterOf[si]], node[clusterOf[di]]
		// Only forward-in-cluster-order edges join the DAG; anything else may
		// cross the cut freely (it becomes an xlink like any other cut edge).
		if a >= b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		in.Edges = append(in.Edges, [2]int{a, b})
	}

	clusterShard := make([]int, nClusters)
	res, err := partition.BestTraversal(in)
	if err == nil && res.NumParts >= 1 {
		pw := make([]int, res.NumParts)
		for n, p := range res.Assign {
			pw[p] += in.Ops[n]
		}
		shardOf := foldWeights(pw, totW, nShards)
		for c := range clusterShard {
			clusterShard[c] = shardOf[res.Assign[node[c]]]
		}
	} else {
		// Partitioner-free fallback: fold the topo-ordered clusters directly.
		pw := make([]int, nClusters)
		for n := range pw {
			pw[n] = in.Ops[n]
		}
		shardOf := foldWeights(pw, totW, nShards)
		for c := range clusterShard {
			clusterShard[c] = shardOf[node[c]]
		}
	}
	for i, u := range live {
		owner[u.ID] = clusterShard[clusterOf[i]]
	}
	return owner
}

// topoPositions returns a deterministic topological position for every live
// unit: Kahn over the non-LCD edges between live units, always emitting the
// lowest-index ready unit, and force-emitting the lowest-index remaining unit
// when a unit-level cycle leaves the frontier empty.
func topoPositions(live []*dfg.VU, idx map[dfg.VUID]int, d *Design) []int {
	n := len(live)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range d.G.LiveEdges() {
		si, oks := idx[e.Src]
		di, okd := idx[e.Dst]
		if !oks || !okd || e.LCD || si == di {
			continue
		}
		adj[si] = append(adj[si], di)
		indeg[di]++
	}
	pos := make([]int, n)
	emitted := make([]bool, n)
	for next := 0; next < n; next++ {
		pick := -1
		for i := 0; i < n; i++ {
			if !emitted[i] && indeg[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if !emitted[i] {
					pick = i
					break
				}
			}
		}
		emitted[pick] = true
		pos[pick] = next
		for _, j := range adj[pick] {
			indeg[j]--
		}
	}
	return pos
}

// foldWeights folds a topo-ordered weight sequence into at most nShards
// contiguous groups of roughly equal total, returning each index's group.
func foldWeights(pw []int, totW, nShards int) []int {
	out := make([]int, len(pw))
	target := (totW + nShards - 1) / nShards
	cur, acc := 0, 0
	for p, wp := range pw {
		if acc > 0 && acc+wp > target && cur < nShards-1 {
			cur++
			acc = 0
		}
		out[p] = cur
		acc += wp
	}
	return out
}

// run drives the workers to completion and assembles the Result.
func (ps *parSim) run() (*Result, error) {
	ps.bar.n = int32(ps.workers)
	var wg sync.WaitGroup
	for i := 1; i < ps.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps.workerLoop(i)
		}(i)
	}
	ps.workerLoop(0)
	wg.Wait()
	ps.stats.BarrierWaitNs = ps.bar.waitNs.Load()
	if ps.err != nil {
		return nil, ps.err
	}
	for _, sh := range ps.shards {
		ps.parent.firedTotal += sh.cs.firedTotal
		ps.parent.busyCycles += sh.cs.busyCycles
	}
	r := ps.parent.buildResult(ps.cycles, "parallel")
	stats := ps.stats
	r.Par = &stats
	return r, nil
}

// workerLoop executes this worker's contiguous shard range window by window.
// Shard-to-worker assignment never influences results — only which goroutine
// runs which shard's (deterministic) window execution.
func (ps *parSim) workerLoop(w int) {
	nS := len(ps.shards)
	lo, hi := w*nS/ps.workers, (w+1)*nS/ps.workers
	for {
		ps.bar.arrive(ps.reduce)
		if ps.finished {
			return
		}
		for _, sh := range ps.shards[lo:hi] {
			sh.ev.runWindow(ps.planStart, ps.planLimit)
		}
	}
}

// reduce runs inside the barrier (single-threaded): drain cross traffic,
// detect completion or deadlock exactly as the serial engine would, and
// either plan the next safe window or execute merged-serial cycles until a
// safe width exists again.
func (ps *parSim) reduce() {
	for {
		ps.drainLinks()
		rem := 0
		for _, sh := range ps.shards {
			rem += sh.ev.remaining
		}
		if rem == 0 {
			// Serial completion: end = max(now, lastFire); the final firing
			// sets lastFire ≥ its own cycle, so the shard maximum is the end.
			end := int64(0)
			for _, sh := range ps.shards {
				if sh.ev.lastFire > end {
					end = sh.ev.lastFire
				}
			}
			if end+1 >= ps.maxCycles {
				ps.finish(0, fmt.Errorf("sim: exceeded %d cycles without completing", ps.maxCycles))
			} else {
				ps.finish(end+1, nil)
			}
			return
		}
		T := int64(-1)
		if !ps.started {
			T = 0 // the seeded full evaluation at cycle 0 holds no queued event
		} else {
			for _, sh := range ps.shards {
				if n := sh.ev.nextEventAt(); n >= 0 && (T < 0 || n < T) {
					T = n
				}
			}
		}
		if T < 0 {
			// Global deadlock. Reconstruct the serial engine's report cycle:
			// its final `now` is the last event cycle any shard processed,
			// plus one if that cycle still made progress.
			L, prog := int64(-1), false
			for _, sh := range ps.shards {
				if sh.ev.lastActive > L {
					L = sh.ev.lastActive
				}
			}
			for _, sh := range ps.shards {
				if sh.ev.lastActive == L && sh.ev.progAtLast {
					prog = true
				}
			}
			c := L
			if prog {
				c++
			}
			if c < 0 {
				c = 0
			}
			if c >= ps.maxCycles { // the serial engines run out of cycles before that idle cycle
				ps.finish(0, fmt.Errorf("sim: exceeded %d cycles without completing", ps.maxCycles))
				return
			}
			ps.parent.now = c
			ps.finish(0, fmt.Errorf("sim: deadlock at cycle %d: %s", c, ps.parent.describeStuck()))
			return
		}
		if T >= ps.maxCycles {
			ps.finish(0, fmt.Errorf("sim: exceeded %d cycles without completing", ps.maxCycles))
			return
		}
		ps.started = true
		if W := ps.windowFor(); W >= 1 {
			limit := T + W
			if limit > ps.maxCycles {
				limit = ps.maxCycles
			}
			ps.planStart, ps.planLimit = T, limit
			ps.stats.Windows++
			return
		}
		ps.serialCycleAt(T)
		ps.stats.SerialCycles++
	}
}

func (ps *parSim) finish(cycles int64, err error) {
	ps.cycles = cycles
	ps.err = err
	ps.finished = true
}

// drainLinks applies one window's buffered cross traffic: arrivals enter the
// destination half's in-flight ring and event queue; pops land on the source
// mirror and wake a parked producer (a re-park — a producer that could
// actually fire was never allowed to park on a cut edge inside a window).
func (ps *parSim) drainLinks() {
	for _, x := range ps.links {
		if len(x.msgs) > 0 {
			dcs := ps.shards[x.dstShard].cs
			for _, at := range x.msgs {
				dcs.schedule(x.dst, at)
			}
			x.msgs = x.msgs[:0]
		}
		if x.popN > 0 {
			x.src.occ -= x.popN
			x.popN = 0
			sev := ps.shards[x.srcShard].ev
			if id := int(x.src.e.Src); sev.parked[id] {
				sev.wakeNow(id)
			}
		}
	}
}

// crossPopNow applies a cross-shard pop during a merged-serial cycle with
// the serial engine's same-cycle visibility rule: the pop is visible to the
// source this cycle only if the source is later in the global ID order than
// the acting unit.
func (ps *parSim) crossPopNow(x *xlink, n int) {
	x.src.occ -= n
	sev := ps.shards[x.srcShard].ev
	id := int(x.src.e.Src)
	if !sev.parked[id] {
		return
	}
	if id > ps.cursor {
		sev.wakeNow(id)
	} else {
		sev.wakeAt(id, sev.now+1)
	}
}

// windowFor returns the widest safe window from the cut edges, or 0 when
// none exists (some cut edge is full — fall back to merged-serial cycles).
func (ps *parSim) windowFor() int64 {
	W := int64(1) << 62
	for _, x := range ps.links {
		if ps.parent.vus[x.src.e.Src].done {
			continue // a completed counter unit never pushes again
		}
		if x.lookahead < W {
			W = x.lookahead
		}
		s := int64(x.src.space())
		var budget int64
		if x.rate > 1 {
			budget = s / int64(x.rate)
		} else {
			budget = (s-1)*x.period + 1
		}
		if budget < W {
			W = budget
		}
		if W < 1 {
			return 0
		}
	}
	return W
}

// serialCycleAt executes one exact global cycle on the reducer: per-shard
// timer drain and deliveries, then a merged ascending-unit-ID scan across
// all shards (re-ORing the wake words so same-cycle wakes land in order),
// with cross-shard pops applied immediately via crossPopNow.
func (ps *parSim) serialCycleAt(T int64) {
	ps.serial = true
	acted := ps.actedBuf
	for i := range acted {
		acted[i] = false
	}
	for i, sh := range ps.shards {
		sh.ev.now, sh.cs.now = T, T
		sh.ev.processing = -1
		n := sh.ev.wakeDue() + sh.ev.deliverDue()
		sh.ev.progressed = false
		sh.ev.currAny = false
		if n > 0 {
			acted[i] = true
		}
	}
	words := len(ps.shards[0].ev.curr)
	for w := 0; w < words; w++ {
		for {
			var word uint64
			for _, sh := range ps.shards {
				word |= sh.ev.curr[w]
			}
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			id := w*64 + b
			sh := ps.shards[ps.owner[id]]
			sh.ev.curr[w] &^= 1 << uint(b)
			acted[ps.owner[id]] = true
			vs := ps.parent.vus[id]
			if vs == nil {
				continue
			}
			sh.ev.processing = id
			ps.cursor = id
			sh.ev.step(vs)
			sh.ev.processing = -1
		}
	}
	ps.cursor = -1
	for i, sh := range ps.shards {
		if acted[i] {
			sh.ev.lastActive = T
			sh.ev.progAtLast = sh.ev.progressed
		}
	}
	ps.serial = false
}

// recordings attaches one profiler recording per shard (plus the DRAM
// dispatch hook) and returns them for MergeDisjoint after the run. Each
// track is defined on exactly one shard — the unit's owner, or the channel's
// address-generator home — so every interval has a single writer.
func (ps *parSim) recordings() []*profile.Recording {
	nVU := len(ps.parent.vus)
	nCh := ps.parent.dram.Channels()
	recs := make([]*profile.Recording, len(ps.shards))
	for s := range recs {
		recs[s] = profile.NewRecording(nVU + nCh)
	}
	for _, u := range ps.d.G.LiveVUs() {
		recs[ps.owner[u.ID]].Define(int(u.ID), u.Name+u.Instance, u.Kind.String())
	}
	for c := 0; c < nCh; c++ {
		recs[ps.chanOwner[c]].Define(nVU+c, fmt.Sprintf("dram[%d]", c), "dram")
	}
	for s, sh := range ps.shards {
		sh.cs.rec = recs[s]
	}
	ps.parent.dram.OnService = func(ch int, start, end int64) {
		recs[ps.chanOwner[ch]].Record(nVU+ch, profile.CauseBusy, start, end-start, profile.NoPeer)
	}
	return recs
}
