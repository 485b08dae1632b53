package partition_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/solver_golden.json")

const goldenPath = "testdata/solver_golden.json"

// goldenRow is what pins a solver-compiled design: the footprint, the
// partitioner's statistics (node count included) and the merge result.
type goldenRow struct {
	Resources   core.Resources
	PartStats   partition.ApplyStats
	MergeCounts [3]int // PCU, PMU, AG
	MergeNodes  int
}

// checkGolden holds a serial solver compile to the row recorded under key in
// testdata/solver_golden.json — the reference solver's answer pinned beside
// the instance. Every search behind a row is bounded by node count alone, so
// the row is a function of the code: a change to lp, mip, partition or merge
// that claims to keep the pivot sequence leaves the file byte-identical, and
// one that means to move a design regenerates it with
// `go test ./internal/partition -run 'Golden|EquivalenceWorkloads' -update`
// and says so.
func checkGolden(t *testing.T, key string, c *core.Compiled) {
	t.Helper()
	got := goldenRow{
		Resources:   c.Resources(),
		PartStats:   *c.PartStats,
		MergeCounts: scCounts(c.Merged.Counts),
		MergeNodes:  c.Merged.MIPNodes,
	}
	rows := map[string]goldenRow{}
	data, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(data, &rows)
	}
	if *update {
		rows[key] = got
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out bytes.Buffer // one design a line, so a diff names it
		for i, k := range keys {
			row, err := json.Marshal(rows[k])
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "{\n"
			}
			fmt.Fprintf(&out, "%s%q: %s", sep, k, row)
		}
		out.WriteString("\n}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	want, ok := rows[key]
	if !ok {
		t.Fatalf("no golden row %q (regenerate with -update)", key)
	}
	if got != want {
		t.Errorf("%s diverges from golden (regenerate with -update if intended)\ngot:  %+v\nwant: %+v", key, got, want)
	}
}

// TestSolverGoldenBenchDesigns pins the six designs of bench's `solver`
// workload under its compiler configuration (gap 0.15, 60 nodes, serial
// search, no wall-clock limit; placement off — nothing pinned here reads it).
// The twelve par-2 designs of TestSolverSerialParallelEquivalenceWorkloads
// are pinned from that test's serial leg.
func TestSolverGoldenBenchDesigns(t *testing.T) {
	for _, d := range []struct {
		name       string
		par, scale int
	}{{"rf", 16, 16}, {"rf", 32, 16}, {"ms", 16, 16}, {"rf", 64, 32}, {"ms", 32, 16}, {"ms", 64, 16}} {
		w, err := workloads.ByName(d.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(w.Build(workloads.Params{Par: d.par, Scale: d.scale}), solverConfig(1, 60))
		if err != nil {
			t.Fatalf("%s par %d: %v", d.name, d.par, err)
		}
		checkGolden(t, fmt.Sprintf("bench/%s-p%d-s%d", d.name, d.par, d.scale), c)
	}
}
