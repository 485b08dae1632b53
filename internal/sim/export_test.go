package sim

// Span is what an event run's steady-state fast-forward did, summed over the
// design's components: the cycles it advanced arithmetically and the cycles
// the engine's runs covered (the share skipped is Skipped/Spanned), its
// jumps, and the engine's work — deliveries plus unit visits — by which two
// detectors compare without host time.
type Span struct{ Skipped, Spanned, Jumps, Work int64 }

// CycleEventSpan runs the event engine and also returns its Span.
func CycleEventSpan(d *Design, maxCycles int64) (*Result, Span, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, Span{}, err
	}
	maxCycles = cycleCap(maxCycles)
	r, err := cs.runEvent(maxCycles)
	return r, Span{cs.skipped, cs.spanned, cs.jumps, cs.work}, err
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
