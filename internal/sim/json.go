package sim

import "sara/internal/arch"

// ResultJSON is the canonical wire encoding of a simulation Result: the one
// JSON shape shared by `sarasim -json` and the sarad serving API, so batch
// runs and served runs are directly comparable and scriptable with the same
// tooling.
type ResultJSON struct {
	Engine       string           `json:"engine"`
	Cycles       int64            `json:"cycles"`
	Seconds      float64          `json:"seconds"`
	BottleneckVU string           `json:"bottleneck_vu,omitempty"`
	BottleneckII float64          `json:"bottleneck_ii,omitempty"`
	ComputeBusy  float64          `json:"compute_busy"`
	FiredTotal   int64            `json:"fired_total,omitempty"`
	DRAM         *DRAMStatsJSON   `json:"dram,omitempty"`
	Stalls       map[string]int64 `json:"stalls,omitempty"`
	TopUnits     []UnitStatJSON   `json:"top_units,omitempty"`
}

// DRAMStatsJSON is the wire encoding of the memory-system counters.
type DRAMStatsJSON struct {
	TotalBytes            int64   `json:"total_bytes"`
	TotalReqs             int64   `json:"total_reqs"`
	StallCycles           int64   `json:"stall_cycles"`
	PeakBytesPerCycle     float64 `json:"peak_bytes_per_cycle"`
	AchievedBytesPerCycle float64 `json:"achieved_bytes_per_cycle"`
}

// UnitStatJSON is the wire encoding of one unit's activity summary. Busy is
// the unit's utilization (fired over total cycles); StallsByCause breaks the
// Stalls total down by the Result.Stalls cause keys. Both additions are
// omitempty so pre-existing consumers of the shape see no change on designs
// that never stall.
type UnitStatJSON struct {
	Name          string           `json:"name"`
	Fired         int64            `json:"fired"`
	Busy          float64          `json:"busy"`
	Stalls        int64            `json:"stalls"`
	StallsByCause map[string]int64 `json:"stalls_by_cause,omitempty"`
}

// JSON converts the result to its wire encoding. spec supplies the clock for
// the cycles→seconds conversion; nil leaves Seconds zero.
func (r *Result) JSON(spec *arch.Spec) *ResultJSON {
	out := &ResultJSON{
		Engine:       r.Engine,
		Cycles:       r.Cycles,
		BottleneckVU: r.BottleneckVU,
		BottleneckII: r.BottleneckII,
		ComputeBusy:  r.ComputeBusy,
		FiredTotal:   r.FiredTotal,
	}
	if spec != nil {
		out.Seconds = r.Seconds(spec)
	}
	if r.DRAM.TotalBytes > 0 {
		d := &DRAMStatsJSON{
			TotalBytes:        r.DRAM.TotalBytes,
			TotalReqs:         r.DRAM.TotalReqs,
			StallCycles:       r.DRAM.StallCycles,
			PeakBytesPerCycle: r.DRAM.PeakBytesPerCycle,
		}
		if r.Cycles > 0 {
			d.AchievedBytesPerCycle = float64(r.DRAM.TotalBytes) / float64(r.Cycles)
		}
		out.DRAM = d
	}
	if len(r.Stalls) > 0 {
		out.Stalls = make(map[string]int64, len(r.Stalls))
		for k, v := range r.Stalls {
			out.Stalls[k] = v
		}
	}
	for _, u := range r.TopUnits {
		uj := UnitStatJSON{Name: u.Name, Fired: u.Fired, Busy: u.Busy, Stalls: u.Stalls}
		if u.Stalls > 0 {
			uj.StallsByCause = map[string]int64{}
			if u.StallIn > 0 {
				uj.StallsByCause["input-starved"] = u.StallIn
			}
			if u.StallOut > 0 {
				uj.StallsByCause["output-blocked"] = u.StallOut
			}
			if u.StallToken > 0 {
				uj.StallsByCause["token-wait"] = u.StallToken
			}
		}
		out.TopUnits = append(out.TopUnits, uj)
	}
	return out
}
