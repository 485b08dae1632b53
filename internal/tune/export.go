package tune

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSON renders the result as indented JSON with a trailing newline.
// Field order is fixed by the struct definitions and map-free, and WallMS
// plus the stage-cache counters are the only nondeterministic members, so
// two searches over the same seed produce byte-identical output after
// StripTimings.
func (r *Result) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// StripTimings returns a copy of the result with the scheduling- and
// store-warmth-dependent counters zeroed: wall time and stage-cache traffic.
// Everything that remains is deterministic for a given Options seed — the
// form the determinism and golden tests compare, and the form sarad echoes
// back for bit-identity with the CLI.
func (r *Result) StripTimings() *Result {
	c := *r
	c.Stats.WallMS = 0
	c.Stats.StageHits = 0
	c.Stats.StageMisses = 0
	c.Stats.StageHitRate = 0
	return &c
}

// CSVHeader is the column layout of WriteCSV.
var CSVHeader = []string{
	"id", "status", "par", "opts",
	"num_pcu", "num_pmu", "num_ag", "dram_channels", "rows", "cols", "stream_depth",
	"floor_cycles", "cycles", "pcu", "pmu", "ag", "total",
	"bottleneck", "bottleneck_cause", "stall_cycles",
	"pareto", "pruned_by", "shared_with", "err",
}

// WriteCSV renders every point as one CSV row in ID order, front membership
// included, using the stable tie-broken ordering markFront established.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for i := range r.Points {
		p := &r.Points[i]
		if err := cw.Write([]string{
			strconv.Itoa(p.Point.ID), string(p.Status), strconv.Itoa(p.Point.Par), p.Point.Opt.Name,
			strconv.Itoa(p.Point.NumPCU), strconv.Itoa(p.Point.NumPMU), strconv.Itoa(p.Point.NumAG),
			strconv.Itoa(p.Point.DRAMChannels), strconv.Itoa(p.Point.Rows), strconv.Itoa(p.Point.Cols),
			strconv.Itoa(p.Point.StreamDepth),
			strconv.FormatInt(p.FloorCycles, 10), strconv.FormatInt(p.Cycles, 10),
			strconv.Itoa(p.PCU), strconv.Itoa(p.PMU), strconv.Itoa(p.AG), strconv.Itoa(p.Total),
			p.Bottleneck, p.BottleneckCause, strconv.FormatInt(p.StallCycles, 10),
			strconv.FormatBool(p.Pareto), strconv.Itoa(p.PrunedBy), strconv.Itoa(p.SharedWith),
			p.Err,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderFront renders the Pareto front as a fixed-width table for terminal
// output, baseline reference included.
func (r *Result) RenderFront() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s scale=%d arch=%s  explored=%d pruned=%d unfit=%d validated=%d errors=%d sims=%d (+%d shared) rounds=%d\n",
		r.Workload, r.Scale, r.Arch,
		r.Stats.Explored, r.Stats.PrunedDominated, r.Stats.Unfit, r.Stats.Validated,
		r.Stats.Errors, r.Stats.CycleSims, r.Stats.SharedSims, r.Stats.Rounds)
	fmt.Fprintf(&sb, "baseline: par=%d total=%d cycles=%d\n", r.Baseline.Par, r.Baseline.Total, r.Baseline.Cycles)
	fmt.Fprintf(&sb, "%-4s  %-40s  %8s  %12s  %12s  %-24s\n", "id", "point", "total", "floor", "cycles", "bottleneck")
	for _, id := range r.Front {
		p := &r.Points[id]
		bn := p.Bottleneck
		if bn == "" {
			bn = "-"
		} else {
			bn = fmt.Sprintf("%s (%s)", p.Bottleneck, p.BottleneckCause)
		}
		fmt.Fprintf(&sb, "%-4d  %-40s  %8d  %12d  %12d  %-24s\n",
			id, p.Point.Label(), p.Total, p.FloorCycles, p.Cycles, bn)
	}
	return sb.String()
}
