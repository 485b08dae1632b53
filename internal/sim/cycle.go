package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"sara/internal/dfg"
	"sara/internal/dram"
	"sara/internal/ir"
	"sara/internal/profile"
)

// EngineKind selects the cycle-level engine implementation. Both engines
// execute the same unit/edge semantics and report bit-identical Results
// (Cycles, FiredTotal, per-kind stalls, DRAM counters); they differ only in
// how they find the next unit to step.
type EngineKind int

const (
	// EngineEvent is the event-driven engine: a calendar queue of arrival
	// events, per-edge wake lists, and batch firing make its cost proportional
	// to activity rather than to cycles x (edges + units), and a steady state
	// that recurs exactly is advanced whole periods at a time. It is the one
	// engine every served, CLI and API path runs.
	EngineEvent EngineKind = iota
	// EngineDense is the original dense engine: every cycle scans all edges
	// for deliveries and steps all units. Linear in cycles; kept only as the
	// reference oracle the event engine is validated against and as the
	// engine that records port traces (CycleWithTrace).
	EngineDense
)

// EngineAuto is the default engine's name: the event engine.
const EngineAuto = EngineEvent

// String returns the engine's canonical name: "cycle" for the event engine
// (the sarad `engine` value and the sarasim -engine flag), "dense" for the
// oracle.
func (k EngineKind) String() string {
	switch k {
	case EngineEvent:
		return "cycle"
	case EngineDense:
		return "dense"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// ParseEngine resolves a served engine's wire name: "", "auto", "cycle" and
// "event" all name the event engine. The dense oracle has no wire name, and
// the analytic model is not an EngineKind; callers that offer it check for it
// first.
func ParseEngine(name string) (EngineKind, error) {
	switch name {
	case "", "auto", "cycle", "event":
		return EngineEvent, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want auto, cycle or event)", name)
}

// defaultMaxCycles is the runaway guard of a cycle-level run whose caller
// passes no positive cap.
const defaultMaxCycles = 200_000_000

// cycleCap returns maxCycles, or defaultMaxCycles when it is not positive.
func cycleCap(maxCycles int64) int64 {
	if maxCycles <= 0 {
		return defaultMaxCycles
	}
	return maxCycles
}

// Cycle runs the event engine. maxCycles guards against runaways (0 = 200M
// cycles).
func Cycle(d *Design, maxCycles int64) (*Result, error) {
	return CycleEngine(d, maxCycles, EngineEvent)
}

// CycleEngine runs the cycle-level simulation on the selected engine.
func CycleEngine(d *Design, maxCycles int64, kind EngineKind) (*Result, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, err
	}
	maxCycles = cycleCap(maxCycles)
	if kind == EngineDense {
		return cs.runDense(maxCycles)
	}
	return cs.runEvent(maxCycles)
}

// edgeState tracks one stream's receiver buffer and in-flight elements.
type edgeState struct {
	e    *dfg.Edge
	occ  int // delivered, consumable elements/tokens
	cap  int
	infl int // scheduled but undelivered elements (O(1) space checks)
	// ring holds the arrival cycles of the infl undelivered elements in
	// schedule order, oldest at head. Its length is the power of two >= cap
	// (see ringLen): every producer checks space() before it schedules, so
	// occ+infl <= cap and the ring is never full when schedule writes.
	ring    []int64
	head    int
	latency int64
	// pops counts every element taken from the buffer. The fast-forward
	// bounds an occupancy's lowest value inside a period by it.
	pops int64
	// armed marks that the event engine holds a queued event for this edge's
	// earliest undelivered arrival (at most one event per edge is in flight).
	armed bool
}

// inflight returns the undelivered element count. The counter is maintained
// incrementally by schedule/deliver so space() — called in every enable check
// of every unit — never rescans the ring.
func (es *edgeState) inflight() int { return es.infl }

func (es *edgeState) space() int { return es.cap - es.occ - es.infl }

// deliver moves arrived elements into the buffer.
func (es *edgeState) deliver(now int64) {
	for es.infl > 0 && es.ring[es.head] <= now {
		es.head = (es.head + 1) & (len(es.ring) - 1)
		es.occ++
		es.infl--
	}
}

// nextArrival returns the earliest pending delivery cycle, or -1.
func (es *edgeState) nextArrival() int64 {
	if es.infl > 0 {
		return es.ring[es.head]
	}
	return -1
}

// vuState is the runtime state of one unit.
type vuState struct {
	u *dfg.VU
	// id and kind copy u.ID and u.Kind, which every step reads.
	id    int
	kind  dfg.VUKind
	idx   []int
	fired int64
	total int64
	done  bool

	// Per-firing streams and counter-level-triggered streams. On a forwarder
	// or VMU, inFire is simply every input edge.
	inFire  []*edgeState
	outFire []*edgeState
	popAt   [][]*edgeState // by counter level
	pushAt  [][]*edgeState
	holdIn  []*edgeState // level-popped inputs: must hold >=1 to be enabled
	// inAny groups alternative sources of one logical stream (banked
	// responses after crossbar elimination): one element per firing is
	// consumed from any member.
	inAny [][]*edgeState

	// VAG state.
	agChan   int
	agIsRead bool
	agRandom bool

	// Stall accounting (cycle counts while enabled-for-work but blocked),
	// by the coarse class of each cycle's cause (see stall).
	stallIn    int64 // waiting on a data input
	stallOut   int64 // blocked on a full output buffer
	stallToken int64 // waiting on a CMMC token or credit
	// lastCause and lastPeer are the most recent blocking cause and the unit
	// blamed; they cannot change while no edge of the unit changes, so the
	// dense engine's idle-skipped windows extend them.
	lastCause profile.Cause
	lastPeer  int32

	// wrapBuf backs wrapLevels so enable checks stay allocation-free.
	wrapBuf []int

	// VMU port table; rrIn is the next port to look at first, in [0,
	// len(ports)).
	ports []*vmuPort
	rrIn  int
}

// vmuPort is one access stream served by a memory unit. rrIn and rrOut are
// the next input and output in round-robin order, kept in [0, len(ins)) and
// [0, len(outs)) (0 for a port without any); phase is served modulo
// decimate, kept apart so serving needs no division.
type vmuPort struct {
	name     string
	write    bool
	ins      []*edgeState
	outs     []*edgeState
	rrIn     int
	rrOut    int
	decimate int
	phase    int
	served   int64 // every element taken from the inputs, dropped ones too
}

type cycleSim struct {
	d     *Design
	dram  *dram.Model
	vus   []*vuState
	edges []*edgeState
	now   int64
	// trace, set only by CycleWithTrace, receives every memory-port service;
	// only the dense engine runs with it.
	trace *Trace
	// rec, when non-nil, receives the timeline profile: one busy interval
	// per firing/service run and one stall interval per blocked window, by
	// cause (see stall). Nil keeps profiling at the cost of one predictable
	// branch per firing.
	rec *profile.Recording

	// noFastPaths turns the event engine's fast paths off — the
	// steady-state fast-forward (fastforward.go) and the split into
	// components (component.go) — so the guard tests can prove both exact by
	// diffing full results with the paths on and off.
	noFastPaths bool

	// ev is the event engine running on this state, nil for the dense
	// engine. Every element scheduled onto an edge and every pop of a
	// receiver buffer flows through schedule/pop below, which call it
	// directly so it can maintain its arrival queue and wake the edge's
	// waiters.
	ev *eventSim

	firedTotal int64
	busyCycles int64 // Σ over compute units of cycles spent firing
	nCompute   int64
	// skipped counts the cycles the event engine's fast-forward advanced
	// arithmetically (fastforward.go), jumps its jumps, drifts the jumps
	// that moved a drifting word, compared its captures compared with a
	// checkpoint and walked the state words its captures walked; spanned
	// counts the cycles the engine's runs covered and work their
	// deliveries and unit visits, summed over components (component.go).
	// Tests read them to see that it fired and what it saved.
	skipped, spanned, jumps, drifts, work, compared, walked int64
}

// schedule is the single scheduling point for stream traffic: one element
// arrives at the edge's receiver at cycle `at`. The caller has checked
// space(). Routing every producer through one method keeps the in-flight
// counter (and, under the event engine, the armed arrival event) consistent
// with the ring by construction.
func (cs *cycleSim) schedule(es *edgeState, at int64) {
	if es.infl == len(es.ring) {
		es.growRing()
	}
	es.ring[(es.head+es.infl)&(len(es.ring)-1)] = at
	es.infl++
	if cs.ev != nil {
		cs.ev.onSchedule(es, at)
	}
}

// pop consumes n delivered elements from the edge's receiver buffer. All
// occupancy decrements route through here so the event engine can wake the
// edge's space-waiter (its source unit).
func (cs *cycleSim) pop(es *edgeState, n int) {
	es.occ -= n
	es.pops += int64(n)
	if cs.ev != nil {
		cs.ev.onPop(es)
	}
}

func newCycleSim(d *Design) (*cycleSim, error) {
	if err := d.G.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mem, err := dram.New(d.Spec.DRAM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cs := &cycleSim{d: d, dram: mem}
	cs.edges = make([]*edgeState, len(d.G.Edges))
	ringTotal := 0
	for _, e := range d.G.LiveEdges() {
		es := &edgeState{
			e:       e,
			cap:     e.Depth,
			latency: int64(d.edgeLatency(e)),
		}
		if es.cap < e.Init+2 {
			es.cap = e.Init + 2
		}
		// Responses in flight from the memory system live in the DRAM
		// controller's queues, not the receiver FIFO: AG hardware covers the
		// bandwidth-delay product. On-chip streams keep the FIFO-sized
		// window (long under-buffered paths really do throttle — that is
		// what retiming fixes).
		if src := d.G.VU(e.Src); src != nil && src.Kind == dfg.VAG {
			es.cap += 2 * d.Spec.DRAM.LatencyCycles
		}
		es.occ = e.Init
		cs.edges[e.ID] = es
		ringTotal += ringLen(es.cap)
	}
	// One slab backs every edge's in-flight ring: allocation per run does not
	// depend on how long the run is.
	slab := make([]int64, ringTotal)
	for _, es := range cs.edges {
		if es != nil {
			n := ringLen(es.cap)
			es.ring, slab = slab[:n:n], slab[n:]
		}
	}
	cs.vus = make([]*vuState, len(d.G.VUs))
	for _, u := range d.G.LiveVUs() {
		vs := &vuState{u: u, id: int(u.ID), kind: u.Kind, idx: make([]int, len(u.Counters)), total: u.Firings()}
		cs.vus[u.ID] = vs
		switch u.Kind {
		case dfg.VMU:
			cs.initVMU(vs)
		case dfg.VCUMerge, dfg.VCURetime, dfg.VCUSync:
			cs.initForwarder(vs)
		default:
			cs.initCounterUnit(vs)
			if u.Kind == dfg.VAG {
				vs.agChan = cs.dram.BindStream()
				if u.Acc >= 0 {
					a := d.G.Prog.Access(u.Acc)
					vs.agIsRead = a.Dir == ir.Read
					vs.agRandom = a.Pat.Kind == ir.PatRandom
				}
			}
			if u.Kind.IsCompute() {
				cs.nCompute++
			}
		}
	}
	return cs, nil
}

// Floor returns a lower bound on the cycles a completed cycle-level run of d
// takes: the larger of the most firings any counter-driven unit makes and,
// per DRAM channel, the cycles the channel needs to move the bytes its read
// streams are charged. It reads the same setup the engines run from, so a
// VAG's channel is the one newCycleSim binds it to.
//
// The firing term holds because the dense engine steps each unit once a
// cycle and so fires it at most once a cycle, a run ends only after every
// counter-driven unit's last firing, and the event engine reports dense's
// cycles exactly (its batch firings stand for one firing a cycle). The read
// term holds because a channel serves its requests one after another from
// cycle 0, at most at peak bandwidth, and every read response lands on the
// unit that made the access, which the run waits for. Write bytes are left
// out: a run may end with writes still queued on their channel when nothing
// waits for their acknowledgements (oversubscribedWriteDesign's write bytes
// would floor it at 15 360 cycles; it completes in 13 753).
func Floor(d *Design) (int64, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return 0, err
	}
	var floor int64
	read := make([]int64, cs.dram.Channels())
	for _, vs := range cs.vus {
		if vs == nil || !vs.isCounterDriven() {
			continue
		}
		floor = max(floor, vs.total)
		if vs.kind == dfg.VAG && vs.agIsRead {
			read[vs.agChan] += vs.total * cs.dram.Charged(cs.agBytes(vs), !vs.agRandom)
		}
	}
	for _, b := range read {
		floor = max(floor, cs.dram.TransferCycles(b))
	}
	return floor, nil
}

// ringStartMax caps the in-flight ring an edge starts with. Compiled designs
// stay far below it (the deepest buffers are DRAM response streams, a few
// hundred elements), so their rings are fixed; a buffer declared deeper — a
// huge stream_depth override or FIFO — gets a bigger ring only if that many
// elements are really in flight at once, not because a request said so.
const ringStartMax = 1024

// ringLen returns the ring length an edge of capacity c starts with: the
// power of two >= c, at most ringStartMax.
func ringLen(c int) int {
	if c > ringStartMax {
		return ringStartMax
	}
	return 1 << bits.Len(uint(c-1))
}

// growRing doubles a full ring, unrolled so the oldest entry sits at 0.
func (es *edgeState) growRing() {
	ring := make([]int64, 2*len(es.ring))
	n := copy(ring, es.ring[es.head:])
	copy(ring[n:], es.ring[:es.head])
	es.ring, es.head = ring, 0
}

// levelOf maps a controller to its index in the unit's counter chain, or -1.
func levelOf(u *dfg.VU, ctrl ir.CtrlID) int {
	for i, c := range u.Counters {
		if c.Ctrl == ctrl {
			return i
		}
	}
	return -1
}

func (cs *cycleSim) initCounterUnit(vs *vuState) {
	u := vs.u
	vs.popAt = make([][]*edgeState, len(u.Counters))
	vs.pushAt = make([][]*edgeState, len(u.Counters))
	groups := map[string][]*edgeState{}
	var groupNames []string
	for _, eid := range cs.d.G.In(u.ID) {
		es := cs.edges[eid]
		lvl := -1
		if es.e.PopCtrl != ir.NoCtrl {
			lvl = levelOf(u, es.e.PopCtrl)
		}
		switch {
		case lvl >= 0:
			vs.popAt[lvl] = append(vs.popAt[lvl], es)
			vs.holdIn = append(vs.holdIn, es)
		case es.e.Group != "":
			if _, ok := groups[es.e.Group]; !ok {
				groupNames = append(groupNames, es.e.Group)
			}
			groups[es.e.Group] = append(groups[es.e.Group], es)
		default:
			vs.inFire = append(vs.inFire, es)
		}
	}
	sort.Strings(groupNames)
	for _, gn := range groupNames {
		vs.inAny = append(vs.inAny, groups[gn])
	}
	for _, eid := range cs.d.G.Out(u.ID) {
		es := cs.edges[eid]
		lvl := -1
		if es.e.PushCtrl != ir.NoCtrl {
			lvl = levelOf(u, es.e.PushCtrl)
		}
		if lvl >= 0 {
			vs.pushAt[lvl] = append(vs.pushAt[lvl], es)
		} else {
			vs.outFire = append(vs.outFire, es)
		}
	}
}

func (cs *cycleSim) initForwarder(vs *vuState) {
	for _, eid := range cs.d.G.In(vs.u.ID) {
		vs.inFire = append(vs.inFire, cs.edges[eid])
	}
	for _, eid := range cs.d.G.Out(vs.u.ID) {
		vs.outFire = append(vs.outFire, cs.edges[eid])
	}
}

func (cs *cycleSim) initVMU(vs *vuState) {
	byPort := map[string]*vmuPort{}
	var names []string
	get := func(port string) *vmuPort {
		p, ok := byPort[port]
		if !ok {
			p = &vmuPort{name: port}
			byPort[port] = p
			names = append(names, port)
		}
		return p
	}
	for _, eid := range cs.d.G.In(vs.u.ID) {
		es := cs.edges[eid]
		vs.inFire = append(vs.inFire, es)
		p := get(es.e.Port)
		p.ins = append(p.ins, es)
		if es.e.Decimate > p.decimate {
			p.decimate = es.e.Decimate
		}
	}
	for _, eid := range cs.d.G.Out(vs.u.ID) {
		es := cs.edges[eid]
		get(es.e.Port).outs = append(get(es.e.Port).outs, es)
	}
	sort.Strings(names)
	for _, n := range names {
		p := byPort[n]
		if p.decimate < 1 {
			p.decimate = 1
		}
		// Write ports are identified by the access direction; the port name
		// is the access name.
		for _, a := range cs.d.G.Prog.Accs {
			if a.Name == n {
				p.write = a.Dir == ir.Write
				break
			}
		}
		vs.ports = append(vs.ports, p)
	}
}

// countRemaining returns the number of counter-driven units that must still
// complete for the run to finish.
func (cs *cycleSim) countRemaining() int {
	remaining := 0
	for _, vs := range cs.vus {
		if vs != nil && vs.isCounterDriven() && vs.total > 0 {
			remaining++
		}
	}
	return remaining
}

// runDense advances the simulation to completion one cycle at a time,
// scanning every edge and stepping every unit each cycle. It is the
// reference oracle for the event engine.
func (cs *cycleSim) runDense(maxCycles int64) (*Result, error) {
	remaining := cs.countRemaining()
	for cs.now = 0; cs.now < maxCycles; cs.now++ {
		progress := false
		for _, es := range cs.edges {
			if es != nil {
				es.deliver(cs.now)
			}
		}
		for _, vs := range cs.vus {
			if vs == nil {
				continue
			}
			switch vs.kind {
			case dfg.VMU:
				if cs.stepVMU(vs) {
					progress = true
				}
			case dfg.VCUMerge:
				if cs.stepMerge(vs) {
					progress = true
				}
			case dfg.VCURetime:
				if cs.stepRetime(vs) {
					progress = true
				}
			case dfg.VCUSync:
				if cs.stepSync(vs) {
					progress = true
				}
			default:
				if vs.done {
					continue
				}
				if cs.stepCounterUnit(vs) {
					progress = true
					if vs.done {
						remaining--
					}
				}
			}
		}
		if remaining == 0 {
			cs.now++
			break
		}
		if !progress {
			// Nothing happened: jump to the next arrival, or report deadlock.
			next := int64(-1)
			for _, es := range cs.edges {
				if es == nil {
					continue
				}
				if a := es.nextArrival(); a > cs.now && (next < 0 || a < next) {
					next = a
				}
			}
			if next < 0 {
				return nil, fmt.Errorf("sim: deadlock at cycle %d: %s", cs.now, cs.describeStuck())
			}
			// A blocked unit stays blocked for the same cause across the
			// fast-forwarded window (no edge changes without an arrival), so
			// stall accounting covers the skipped cycles too.
			if skipped := next - 1 - cs.now; skipped > 0 {
				for _, vs := range cs.vus {
					if vs != nil && vs.isCounterDriven() && !vs.done {
						cs.stall(vs, vs.lastCause, vs.lastPeer, cs.now+1, skipped)
					}
				}
			}
			cs.now = next - 1 // loop increment lands on the arrival cycle
		}
	}
	if cs.now >= maxCycles {
		return nil, fmt.Errorf("sim: exceeded %d cycles without completing", maxCycles)
	}
	return cs.buildResult(cs.now, "dense"), nil
}

// buildResult assembles the execution report after a completed run.
func (cs *cycleSim) buildResult(cycles int64, engine string) *Result {
	busy := 0.0
	if cs.nCompute > 0 && cycles > 0 {
		busy = float64(cs.busyCycles) / float64(cs.nCompute*cycles)
	}
	stalls := map[string]int64{}
	var units []UnitStat
	for _, vs := range cs.vus {
		if vs == nil {
			continue
		}
		stalls["input-starved"] += vs.stallIn
		stalls["output-blocked"] += vs.stallOut
		stalls["token-wait"] += vs.stallToken
		if vs.fired > 0 {
			units = append(units, UnitStat{
				Name:       vs.u.Name + vs.u.Instance,
				Fired:      vs.fired,
				Busy:       float64(vs.fired) / float64(cycles),
				Stalls:     vs.stallIn + vs.stallOut + vs.stallToken,
				StallIn:    vs.stallIn,
				StallOut:   vs.stallOut,
				StallToken: vs.stallToken,
			})
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Fired > units[j].Fired })
	if len(units) > 10 {
		units = units[:10]
	}
	return &Result{
		Cycles:      cycles,
		Engine:      engine,
		ComputeBusy: busy,
		DRAM:        cs.dram.Stats(),
		FiredTotal:  cs.firedTotal,
		Stalls:      stalls,
		TopUnits:    units,
	}
}

func (vs *vuState) isCounterDriven() bool {
	return vs.kind.CounterDriven()
}

// blockCause returns why a counter-driven unit cannot fire this cycle and
// the unit blamed, or profile.CauseBusy when it is enabled: per-firing inputs
// available, level-popped inputs held, per-firing outputs (and any
// wrap-triggered pushes) have space. The cause is a function of the first
// blocking edge alone: an empty data input is dram-wait when a VAG feeds it
// and upstream-wait otherwise; an empty token edge or level-popped input is
// credit-wait when it starts with credits and token-wait otherwise; a full
// output is output-blocked. The peer is the edge's producer, or its consumer
// for an output. Pure check — no state changes.
func (cs *cycleSim) blockCause(vs *vuState) (profile.Cause, int32) {
	for _, es := range vs.inFire {
		if es.occ < 1 {
			if es.e.Kind == dfg.EToken {
				return tokenCause(es), int32(es.e.Src)
			}
			return cs.inputCause(es), int32(es.e.Src)
		}
	}
	for _, es := range vs.holdIn {
		if es.occ < 1 {
			return tokenCause(es), int32(es.e.Src)
		}
	}
	for _, grp := range vs.inAny {
		total := 0
		for _, es := range grp {
			total += es.occ
		}
		if total < 1 {
			return cs.inputCause(grp[0]), int32(grp[0].e.Src)
		}
	}
	for _, es := range vs.outFire {
		if es.space() < 1 {
			return profile.CauseOutput, int32(es.e.Dst)
		}
	}
	for _, lvl := range vs.wrapLevels() {
		for _, es := range vs.pushAt[lvl] {
			if es.space() < 1 {
				return profile.CauseOutput, int32(es.e.Dst)
			}
		}
	}
	return profile.CauseBusy, profile.NoPeer
}

// inputCause is the cause of a stall on empty input es.
func (cs *cycleSim) inputCause(es *edgeState) profile.Cause {
	if src := cs.vus[es.e.Src]; src != nil && src.kind == dfg.VAG {
		return profile.CauseDRAM
	}
	return profile.CauseUpstream
}

// tokenCause is the cause of a stall on empty token edge es.
func tokenCause(es *edgeState) profile.Cause {
	if es.e.Init > 0 {
		return profile.CauseCredit
	}
	return profile.CauseToken
}

// stall charges n blocked cycles of vs from start to cause c, blaming peer:
// the counter of the coarse class c.Coarse() names grows by n and, when
// profiling, the recording gets the interval. It is the one place a stall is
// counted, in either engine.
func (cs *cycleSim) stall(vs *vuState, c profile.Cause, peer int32, start, n int64) {
	switch c {
	case profile.CauseUpstream, profile.CauseDRAM:
		vs.stallIn += n
	case profile.CauseOutput:
		vs.stallOut += n
	case profile.CauseToken, profile.CauseCredit:
		vs.stallToken += n
	}
	if cs.rec != nil {
		cs.rec.Record(vs.id, c, start, n, peer)
	}
}

// fireCounterUnit performs one firing; the caller has established the unit is
// enabled (blockCause answers profile.CauseBusy).
func (cs *cycleSim) fireCounterUnit(vs *vuState) {
	for _, es := range vs.inFire {
		cs.pop(es, 1)
	}
	for _, grp := range vs.inAny {
		for _, es := range grp {
			if es.occ > 0 {
				cs.pop(es, 1)
				break
			}
		}
	}
	lat := int64(vs.u.Stages)
	if vs.kind == dfg.VAG {
		lat = cs.agIssue(vs)
	}
	for _, es := range vs.outFire {
		cs.schedule(es, cs.now+lat+es.latency)
	}
	for _, lvl := range vs.wrapLevels() {
		for _, es := range vs.pushAt[lvl] {
			cs.schedule(es, cs.now+lat+es.latency)
		}
		for _, es := range vs.popAt[lvl] {
			cs.pop(es, 1)
		}
	}
	vs.advanceCounters()
	vs.fired++
	cs.firedTotal++
	if vs.kind.IsCompute() {
		cs.busyCycles++
	}
	if cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, 1, profile.NoPeer)
	}
	if vs.fired >= vs.total {
		vs.done = true
	}
}

// stepCounterUnit attempts one firing of a counter-driven unit (dense path).
func (cs *cycleSim) stepCounterUnit(vs *vuState) bool {
	if cause, peer := cs.blockCause(vs); cause != profile.CauseBusy {
		cs.stall(vs, cause, peer, cs.now, 1)
		vs.lastCause, vs.lastPeer = cause, peer
		return false
	}
	cs.fireCounterUnit(vs)
	return true
}

// wrapLevels returns the counter levels (indices) that wrap on the next
// firing, innermost first. The returned slice is reused across calls.
func (vs *vuState) wrapLevels() []int {
	wraps := vs.wrapBuf[:0]
	for i := len(vs.idx) - 1; i >= 0; i-- {
		if vs.idx[i]+1 < vs.u.Counters[i].Trip {
			break
		}
		wraps = append(wraps, i)
	}
	vs.wrapBuf = wraps
	return wraps
}

// advanceCounters performs the chained-counter increment: the innermost
// level bumps every firing, carrying outward on saturation.
func (vs *vuState) advanceCounters() {
	for i := len(vs.idx) - 1; i >= 0; i-- {
		vs.idx[i]++
		if vs.idx[i] < vs.u.Counters[i].Trip {
			return
		}
		vs.idx[i] = 0
	}
}

// agIssue sends one DRAM transfer for the firing and returns the extra
// latency before its response (read data or write ack) appears. Sequential
// patterns coalesce into shared bursts; gathers pay full bursts.
func (cs *cycleSim) agIssue(vs *vuState) int64 {
	bytes := cs.agBytes(vs)
	var done int64
	if vs.agRandom {
		done = cs.dram.Request(vs.agChan, bytes, cs.now)
	} else {
		done = cs.dram.RequestCoalesced(vs.agChan, bytes, cs.now)
	}
	return done - cs.now
}

// agBytes is the size of one firing's transfer of VAG vs.
func (cs *cycleSim) agBytes(vs *vuState) int {
	return vs.u.Lanes * elemBytes(cs.d)
}

// stepVMU serves at most one read port and one write port per cycle.
func (cs *cycleSim) stepVMU(vs *vuState) bool {
	progress := false
	progress = cs.serveVMUPort(vs, true) || progress
	progress = cs.serveVMUPort(vs, false) || progress
	if progress && cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, 1, profile.NoPeer)
	}
	return progress
}

func (cs *cycleSim) serveVMUPort(vs *vuState, write bool) bool {
	n := len(vs.ports)
	progress := false
	for k, i := 0, vs.rrIn; k < n; k++ {
		p := vs.ports[i]
		if i++; i == n {
			i = 0
		}
		if p.write != write || len(p.ins) == 0 {
			continue
		}
		in := p.ins[p.rrIn]
		// The bank-address filter drops non-matching requests of a banked
		// broadcast at line rate: only every decimate-th element occupies a
		// real service slot (paper Fig 8b). One pop of the whole share wakes
		// the source as one pop per element would: only the first finds it
		// parked.
		if p.phase != 0 && in.occ > 0 {
			drop := min(in.occ, p.decimate-p.phase)
			cs.pop(in, drop)
			p.served += int64(drop)
			if p.phase += drop; p.phase == p.decimate {
				p.phase = 0
			}
			progress = true
		}
		if in.occ < 1 {
			continue
		}
		var out *edgeState
		if len(p.outs) > 0 {
			out = p.outs[p.rrOut]
			if out.space() < 1 {
				continue
			}
		}
		cs.pop(in, 1)
		if p.rrIn++; p.rrIn == len(p.ins) {
			p.rrIn = 0
		}
		p.served++
		if p.phase++; p.phase == p.decimate {
			p.phase = 0
		}
		if cs.trace != nil {
			cs.trace.Events = append(cs.trace.Events, PortEvent{
				Mem: vs.u.Mem, Access: p.name, Write: p.write, Cycle: cs.now, Seq: p.served,
			})
		}
		if out != nil {
			cs.schedule(out, cs.now+int64(cs.d.Spec.PMU.Stages)+out.latency)
			if p.rrOut++; p.rrOut == len(p.outs) {
				p.rrOut = 0
			}
		}
		if vs.rrIn++; vs.rrIn == n {
			vs.rrIn = 0
		}
		return true
	}
	return progress
}

// stepMerge moves elements through a banking merge node. The node is a
// vector-wide filter: it inspects one element from EACH input stream per
// cycle (that is why banking builds trees — each level absorbs fan-in at
// line rate, paper Fig 8c), forwarding them downstream where the bank-address
// filter at the memory port discards the non-matching share for free.
func (cs *cycleSim) stepMerge(vs *vuState) bool {
	if len(vs.outFire) == 0 || len(vs.inFire) == 0 {
		return false
	}
	out := vs.outFire[0]
	progress := false
	for _, in := range vs.inFire {
		if in.occ < 1 || out.space() < 1 {
			continue
		}
		cs.pop(in, 1)
		cs.schedule(out, cs.now+1+out.latency)
		progress = true
	}
	if progress && cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, 1, profile.NoPeer)
	}
	return progress
}

// stepRetime forwards its single stream with one cycle of delay.
func (cs *cycleSim) stepRetime(vs *vuState) bool {
	if len(vs.inFire) == 0 || len(vs.outFire) == 0 {
		return false
	}
	in, out := vs.inFire[0], vs.outFire[0]
	if in.occ < 1 || out.space() < 1 {
		return false
	}
	cs.pop(in, 1)
	cs.schedule(out, cs.now+1+out.latency)
	if cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, 1, profile.NoPeer)
	}
	return true
}

// stepSync fires when every input holds a token, emitting one to every
// output.
func (cs *cycleSim) stepSync(vs *vuState) bool {
	for _, es := range vs.inFire {
		if es.occ < 1 {
			return false
		}
	}
	for _, es := range vs.outFire {
		if es.space() < 1 {
			return false
		}
	}
	if len(vs.inFire) == 0 {
		return false
	}
	for _, es := range vs.inFire {
		cs.pop(es, 1)
	}
	for _, es := range vs.outFire {
		cs.schedule(es, cs.now+1+es.latency)
	}
	if cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, 1, profile.NoPeer)
	}
	return true
}

// starvedInput names the first input a counter-driven unit is starved on, in
// blockCause's order: an empty per-firing or level-popped edge by label, a
// banked response group whose members are all empty by group name.
func (vs *vuState) starvedInput() (name string, starved bool) {
	for _, l := range [2][]*edgeState{vs.inFire, vs.holdIn} {
		for _, es := range l {
			if es.occ < 1 {
				return es.e.Label, true
			}
		}
	}
groups:
	for _, grp := range vs.inAny {
		for _, es := range grp {
			if es.occ > 0 {
				continue groups
			}
		}
		return grp[0].e.Group, true
	}
	return "", false
}

// describeStuck reports which units are blocked and why, for deadlock
// diagnostics.
func (cs *cycleSim) describeStuck() string {
	var sb []byte
	n := 0
	for _, vs := range cs.vus {
		if vs == nil || vs.done || !vs.isCounterDriven() || n >= 32 {
			continue
		}
		if wait, starved := vs.starvedInput(); starved {
			sb = fmt.Appendf(sb, "; %s%s waits on %s (fired %d/%d)",
				vs.u.Name, vs.u.Instance, wait, vs.fired, vs.total)
			n++
		}
		for _, es := range vs.outFire {
			if es.space() < 1 {
				sb = fmt.Appendf(sb, "; %s%s blocked on full %s occ=%d inflight=%d cap=%d (fired %d/%d)",
					vs.u.Name, vs.u.Instance, es.e.Label, es.occ, es.inflight(), es.cap, vs.fired, vs.total)
				n++
				break
			}
		}
		for _, lvl := range vs.wrapLevels() {
			for _, es := range vs.pushAt[lvl] {
				if es.space() < 1 {
					sb = fmt.Appendf(sb, "; %s%s blocked pushing %s occ=%d cap=%d (fired %d/%d)",
						vs.u.Name, vs.u.Instance, es.e.Label, es.occ, es.cap, vs.fired, vs.total)
					n++
				}
			}
		}
	}
	for c := 0; c < cs.dram.Channels(); c++ {
		if ready := cs.dram.NextReady(c); ready > cs.now {
			sb = fmt.Appendf(sb, "; dram channel %d busy until cycle %d", c, ready)
		}
	}
	if n == 0 {
		return "no blocked counter-driven unit found"
	}
	return string(sb)
}
