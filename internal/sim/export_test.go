package sim

// CycleEventSpan runs the event engine and also returns how many cycles its
// steady-state fast-forward advanced arithmetically and the cycles the
// engine's runs covered, summed over the design's components: the share the
// fast-forward skipped is skipped/spanned.
func CycleEventSpan(d *Design, maxCycles int64) (r *Result, skipped, spanned int64, err error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, 0, 0, err
	}
	maxCycles = cycleCap(maxCycles)
	r, err = cs.runEvent(maxCycles)
	return r, cs.skipped, cs.spanned, err
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
