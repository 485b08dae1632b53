package sim

// CycleEventSkipped runs the serial event engine and also returns how many
// cycles its steady-state fast-forward advanced arithmetically.
func CycleEventSkipped(d *Design, maxCycles int64) (*Result, int64, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, 0, err
	}
	if maxCycles <= 0 {
		maxCycles = 200_000_000
	}
	r, err := cs.runEvent(maxCycles)
	return r, cs.skipped, err
}
