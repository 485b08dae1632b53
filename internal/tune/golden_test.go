package tune

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleResult is a hand-built fixture covering every export path: a
// validated front member, a shared-measurement follower, a dominance-pruned
// point, an unfit point, and an error point with a comma in its message
// (exercising CSV quoting).
func sampleResult() *Result {
	all := NamedOptSets[0]
	none := NamedOptSets[5]
	return &Result{
		Workload: "rf",
		Scale:    32,
		Arch:     "plasticine-20x20-hbm2",
		Points: []PointResult{
			{
				Point:  Point{ID: 0, Par: 16, Opt: all},
				Status: StatusValidated, FloorCycles: 319542, Cycles: 803057,
				PCU: 9, PMU: 14, AG: 5, Total: 28,
				Bottleneck: "tree.W0.acc", BottleneckCause: "dram", StallCycles: 512000,
				AtBaseArch: true, Pareto: true, PrunedBy: -1, SharedWith: -1,
			},
			{
				Point:  Point{ID: 1, Par: 16, Opt: none},
				Status: StatusValidated, FloorCycles: 319542, Cycles: 803057,
				PCU: 9, PMU: 14, AG: 5, Total: 28,
				Bottleneck: "tree.W0.acc", BottleneckCause: "dram", StallCycles: 512000,
				AtBaseArch: true, PrunedBy: -1, SharedWith: 0,
			},
			{
				Point:  Point{ID: 2, Par: 8, Opt: all, DRAMChannels: 8},
				Status: StatusPruned, FloorCycles: 1278168,
				PCU: 5, PMU: 8, AG: 3, Total: 16,
				PrunedBy: 0, SharedWith: -1,
			},
			{
				Point:  Point{ID: 3, Par: 256, Opt: all},
				Status: StatusUnfit, FloorCycles: 19971,
				PCU: 144, PMU: 224, AG: 80, Total: 448,
				AtBaseArch: true, PrunedBy: -1, SharedWith: -1,
			},
			{
				Point:  Point{ID: 4, Par: 16, Opt: all, Rows: 1, Cols: 1},
				Status: StatusError, Err: `compile failed: grid 1x1, too small`,
				PrunedBy: -1, SharedWith: -1,
			},
		},
		Front: []int{0},
		Baseline: Baseline{
			RequestedPar: 128, Par: 64, Cycles: 446072, Total: 104,
		},
		Stats: Stats{
			Explored: 5, Unfit: 1, PrunedDominated: 1, Validated: 2, Errors: 1,
			CycleSims: 2, SharedSims: 1, Rounds: 1,
			StageHits: 40, StageMisses: 14, StageHitRate: 0.7407407407407407, WallMS: 1234,
		},
	}
}

// TestExportGolden pins the saratune JSON and CSV export formats
// byte-for-byte, the same pattern as the Chrome-trace golden test: schema
// drift fails here before a downstream consumer sees it. Regenerate with
// `go test ./internal/tune -run Golden -update`.
func TestExportGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		write  func(*Result, *bytes.Buffer) error
	}{
		{"json", "tune_golden.json", func(r *Result, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"csv", "tune_golden.csv", func(r *Result, b *bytes.Buffer) error { return r.WriteCSV(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(sampleResult(), &buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("export diverges from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					buf.Bytes(), want)
			}
		})
	}
}

// TestStripTimingsZeroesOnlyTimingFields keeps the determinism contract
// honest: stripping must remove wall time and cache traffic and nothing
// else.
func TestStripTimingsZeroesOnlyTimingFields(t *testing.T) {
	r := sampleResult()
	s := r.StripTimings()
	if s.Stats.WallMS != 0 || s.Stats.StageHits != 0 || s.Stats.StageMisses != 0 || s.Stats.StageHitRate != 0 {
		t.Errorf("timing fields survived StripTimings: %+v", s.Stats)
	}
	if s.Stats.Explored != r.Stats.Explored || s.Stats.Validated != r.Stats.Validated ||
		len(s.Points) != len(r.Points) || s.Baseline != r.Baseline {
		t.Errorf("StripTimings altered non-timing fields")
	}
	if r.Stats.WallMS == 0 {
		t.Error("fixture should carry a nonzero wall time")
	}
}
