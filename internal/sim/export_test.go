package sim

import "slices"

// Span is what an event run's steady-state fast-forward did, summed over the
// design's components: the cycles it advanced arithmetically and the cycles
// the engine's runs covered (the share skipped is Skipped/Spanned), its
// jumps and how many of them moved a drifting word, the engine's work —
// deliveries plus unit visits — the captures it compared with a checkpoint
// and the state words its captures walked, by which two detectors compare
// without host time.
type Span struct{ Skipped, Spanned, Jumps, Drifts, Work, Compared, Walked int64 }

// CycleEventSpan runs the event engine and also returns its Span.
func CycleEventSpan(d *Design, maxCycles int64) (*Result, Span, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, Span{}, err
	}
	maxCycles = cycleCap(maxCycles)
	r, err := cs.runEvent(maxCycles)
	return r, Span{cs.skipped, cs.spanned, cs.jumps, cs.drifts, cs.work, cs.compared, cs.walked}, err
}

// CycleEventSingleLoop runs the event engine, fast paths on, as one loop
// over the whole design: the reference its component runs are held to.
func CycleEventSingleLoop(d *Design, maxCycles int64) (*Result, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, err
	}
	maxCycles = cycleCap(maxCycles)
	return cs.runComponents([]*component{cs.whole()}, maxCycles)
}

// ComponentCount returns how many components the event engine runs d as
// one after another; 0 means it runs d as one loop.
func ComponentCount(d *Design) (int, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return 0, err
	}
	return len(cs.components()), nil
}

// Walks counts the captures an event run compared with the fast-forward's
// checkpoint word by word: all of them, those found equal but for drifts,
// those of them with a drifting word, and those whose verdict or drifts
// differ from a full walk of the same state classified by the same rule.
type Walks struct{ Compared, Equal, Drifting, Wrong int }

// CycleEventCheckWalks runs the event engine and, at every capture the
// fast-forward compares word by word, also walks the state in full against
// the checkpoint. The early-exit verdict must equal the full walk's, and a
// repeat's drifts must equal the full walk's and be the only words in which
// it differs from the checkpoint, each by its delta.
func CycleEventCheckWalks(d *Design, maxCycles int64) (Walks, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return Walks{}, err
	}
	var n Walks
	ffCheck = func(ff *fastForward, c *ffState, drifts []ffDrift, same bool) {
		full := sigWalk{keep: true, ff: ff, chk: c, ref: c.sig}
		ff.state(&full)
		fullSame := !full.differ && full.n == len(full.ref)
		n.Compared++
		if same {
			n.Equal++
			if len(drifts) > 0 {
				n.Drifting++
			}
		}
		switch {
		case fullSame != same:
			n.Wrong++
		case same && !slices.Equal(full.drifts, drifts):
			n.Wrong++
		case same:
			want := slices.Clone(c.sig)
			for _, d := range drifts {
				want[d.pos] += d.delta
			}
			if !slices.Equal(full.words, want) {
				n.Wrong++
			}
		}
	}
	defer func() { ffCheck = nil }()
	_, err = cs.runEvent(cycleCap(maxCycles))
	return n, err
}
