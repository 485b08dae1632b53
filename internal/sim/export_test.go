package sim

import "slices"

// Span is what an event run's steady-state fast-forward did, summed over the
// design's components: the cycles it advanced arithmetically and the cycles
// the engine's runs covered (the share skipped is Skipped/Spanned), its
// jumps, the engine's work — deliveries plus unit visits — and the state
// words its captures walked, by which two detectors compare without host
// time.
type Span struct{ Skipped, Spanned, Jumps, Work, Walked int64 }

// CycleEventSpan runs the event engine and also returns its Span.
func CycleEventSpan(d *Design, maxCycles int64) (*Result, Span, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, Span{}, err
	}
	maxCycles = cycleCap(maxCycles)
	r, err := cs.runEvent(maxCycles)
	return r, Span{cs.skipped, cs.spanned, cs.jumps, cs.work, cs.walked}, err
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
// checkpoint word by word: all of them, those found equal, and those whose
// verdict differs from comparing a full walk of the same state.
type Walks struct{ Compared, Equal, Wrong int }

// CycleEventCheckWalks runs the event engine and, at every capture the
// fast-forward compares word by word, also walks the state in full and checks
// the early-exit verdict against slices.Equal(full walk, ref).
func CycleEventCheckWalks(d *Design, maxCycles int64) (Walks, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return Walks{}, err
	}
	var n Walks
	ffCheck = func(ff *fastForward, same bool) {
		w := sigWalk{keep: true}
		ff.state(&w)
		n.Compared++
		if same {
			n.Equal++
		}
		if slices.Equal(w.words, ff.ref.sig) != same {
			n.Wrong++
		}
	}
	defer func() { ffCheck = nil }()
	_, err = cs.runEvent(cycleCap(maxCycles))
	return n, err
}
