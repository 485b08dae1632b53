package sim

import (
	"fmt"

	"sara/internal/ir"
)

// PortEvent records one service of a memory port: which access stream was
// served and when. The trace is the ground truth CMMC must shape: for every
// surviving dependence between two accessors, the interleaving of their
// service events must match the order a sequentially executed program would
// produce (paper §III-A1).
type PortEvent struct {
	Mem    ir.MemID
	Access string // access name (the port)
	Write  bool
	Cycle  int64
	// Seq is the running service count of this port at this event (1-based).
	Seq int64
}

// Trace is the memory-service history of a cycle-level run.
type Trace struct {
	Events []PortEvent
}

// PortHistory returns the service cycles of one access stream, in order.
func (t *Trace) PortHistory(access string) []int64 {
	var out []int64
	for _, e := range t.Events {
		if e.Access == access {
			out = append(out, e.Cycle)
		}
	}
	return out
}

// CycleWithTrace runs the dense engine while recording every memory-port
// service event. Traces always come from the dense engine — see
// ErrTraceNeedsDense for why.
func CycleWithTrace(d *Design, maxCycles int64) (*Result, *Trace, error) {
	return CycleWithTraceEngine(d, maxCycles, EngineDense)
}

// ErrTraceNeedsDense is returned when a memory-port trace is requested from
// the event engine. Traces are an ordering oracle: CMMC verification compares
// the interleaving of service events against the sequential program order,
// and the event engine's batch firing can end a run before tail VMU services
// that never affect the Result would have been recorded — the trace would be
// truncated, not merely reordered. Rather than silently switching engines (or
// silently producing a short trace), the request fails loudly.
var ErrTraceNeedsDense = fmt.Errorf(
	"sim: memory-port tracing requires the dense engine (EngineDense); " +
		"the event engine's batch firing may end a run before tail VMU services are recorded")

// CycleWithTraceEngine is CycleWithTrace with an explicit engine choice:
// EngineDense records the trace, and EngineEvent (which EngineAuto names)
// returns ErrTraceNeedsDense.
func CycleWithTraceEngine(d *Design, maxCycles int64, kind EngineKind) (*Result, *Trace, error) {
	if kind == EngineEvent {
		return nil, nil, ErrTraceNeedsDense
	}
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, nil, err
	}
	tr := &Trace{}
	cs.trace = tr
	if maxCycles <= 0 {
		maxCycles = 200_000_000
	}
	r, err := cs.runDense(maxCycles)
	if err != nil {
		return nil, nil, err
	}
	return r, tr, nil
}

// VerifyOrder checks that for every pair of access streams with a strict
// (credit 1) producer→consumer relationship, the k-th consumer batch begins
// only after the k-th producer batch completes. batchSrc and batchDst are
// the per-iteration service counts of the two streams; n is the number of
// iterations to check.
func (t *Trace) VerifyOrder(src, dst string, batchSrc, batchDst, n int) error {
	hs := t.PortHistory(src)
	hd := t.PortHistory(dst)
	for k := 0; k < n; k++ {
		if (k+1)*batchSrc > len(hs) || k*batchDst >= len(hd) {
			break
		}
		srcEnd := hs[(k+1)*batchSrc-1]
		dstStart := hd[k*batchDst]
		if dstStart < srcEnd {
			return fmt.Errorf("iteration %d: %s batch starts at cycle %d before %s batch completes at %d",
				k, dst, dstStart, src, srcEnd)
		}
	}
	return nil
}

// VerifyWindow checks the relaxed (multibuffered) invariant: with credit c,
// the producer may run at most c iterations ahead of the consumer — the k-th
// producer batch must not begin until the (k−c)-th consumer batch has
// completed.
func (t *Trace) VerifyWindow(src, dst string, batchSrc, batchDst, n, credit int) error {
	hs := t.PortHistory(src)
	hd := t.PortHistory(dst)
	for k := credit; k < n; k++ {
		if (k+1)*batchSrc > len(hs) || (k-credit+1)*batchDst > len(hd) {
			break
		}
		srcStart := hs[k*batchSrc]
		dstDone := hd[(k-credit+1)*batchDst-1]
		if srcStart < dstDone {
			return fmt.Errorf("iteration %d: %s ran %d+ iterations ahead (start %d < consumer done %d)",
				k, src, credit, srcStart, dstDone)
		}
	}
	return nil
}
