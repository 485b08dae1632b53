package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/sweep"
)

// TestFig9aMLPScalesLinearly pins the paper's headline scalability claim:
// mlp speeds up near-linearly with the parallelization factor until on-chip
// resources run out (paper §IV-A).
func TestFig9aMLPScalesLinearly(t *testing.T) {
	data, txt, err := Fig9a([]string{"mlp"}, []int{1, 4, 16, 64, 256}, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	pts := data["mlp"]
	for _, p := range pts {
		// Allow 30% deviation from perfectly linear.
		if p.Fit && p.Speedup < 0.7*float64(p.Par) {
			t.Errorf("par %d: speedup %.1fx below linear band\n%s", p.Par, p.Speedup, txt)
		}
	}
	// Resources grow with par.
	if pts[len(pts)-1].PUs <= pts[0].PUs {
		t.Errorf("resources should grow with par: %v", pts)
	}
}

// TestFig9aRFSaturates pins rf's saturation: the paper's Fig 9a shows rf
// stops scaling around par 128.
func TestFig9aRFSaturates(t *testing.T) {
	data, _, err := Fig9a([]string{"rf"}, []int{64, 128, 256}, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	pts := data["rf"]
	if pts[1].Speedup < 1.5*pts[0].Speedup*0.8 {
		t.Errorf("rf should still gain from 64 to 128: %+v", pts)
	}
	gain := pts[2].Speedup / pts[1].Speedup
	if gain > 1.3 {
		t.Errorf("rf should saturate past 128, got %.2fx further gain", gain)
	}
}

func TestFig9bParetoNonEmpty(t *testing.T) {
	pts, txt, err := Fig9b([]string{"lstm"}, []int{16, 64}, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9b: %v", err)
	}
	var pareto, dominated int
	for _, p := range pts {
		if p.Pareto {
			pareto++
		} else {
			dominated++
		}
	}
	if pareto == 0 {
		t.Fatalf("no Pareto points:\n%s", txt)
	}
	if dominated == 0 {
		t.Errorf("design space should contain dominated points:\n%s", txt)
	}
}

func TestFig10MergeSavesResources(t *testing.T) {
	effects, txt, err := Fig10([]string{"lstm"}, 64, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	for _, e := range effects {
		if e.Opt == "merge" {
			if e.ResourceRatio <= 1.1 {
				t.Errorf("disabling merging should cost resources, ratio=%.2f\n%s", e.ResourceRatio, txt)
			}
		}
		if e.Slowdown > 0 && e.Slowdown < 0.95 {
			t.Errorf("disabling %s should not speed things up: %.2fx", e.Opt, e.Slowdown)
		}
	}
}

func TestFig10TokensReduced(t *testing.T) {
	stats, txt, err := Fig10Tokens([]string{"lstm", "gda"}, 16, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig10Tokens: %v", err)
	}
	for _, s := range stats {
		if s.Reduced > s.RawTokens {
			t.Errorf("%s: reduction added tokens?\n%s", s.Workload, txt)
		}
	}
	// At least one workload must show real reduction.
	any := false
	for _, s := range stats {
		if s.Reduced < s.RawTokens {
			any = true
		}
	}
	if !any {
		t.Errorf("control-reduction removed nothing:\n%s", txt)
	}
}

// TestFig11SolverAtLeastMatchesTraversal pins Fig 11a's claim: the solver's
// resource usage is never worse than the traversal heuristics (it is
// warm-started by them) while taking far longer to compile.
func TestFig11SolverAtLeastMatchesTraversal(t *testing.T) {
	rs, txt, err := Fig11([]string{"kmeans"}, 8, 16, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	bySolver := map[string]AlgoResult{}
	worstTraversal := map[string]int{}
	for _, r := range rs {
		if r.Algo == "solver" {
			bySolver[r.Workload] = r
		} else if r.PUs > worstTraversal[r.Workload] {
			worstTraversal[r.Workload] = r.PUs
		}
	}
	for w, s := range bySolver {
		if s.PUs > worstTraversal[w] {
			t.Errorf("%s: solver (%d PUs) worse than worst traversal (%d)\n%s", w, s.PUs, worstTraversal[w], txt)
		}
	}
}

func TestTable4CoversAllWorkloads(t *testing.T) {
	rows, txt := Table4()
	if len(rows) != 12 {
		t.Fatalf("Table IV rows = %d, want 12\n%s", len(rows), txt)
	}
	if !strings.Contains(txt, "pr") || !strings.Contains(txt, "graph") {
		t.Errorf("Table IV missing expected entries:\n%s", txt)
	}
}

// TestTable5Shape pins the §IV-C comparison's structure: SARA beats the
// vanilla compiler on every kernel, with the compute-bound kernels (kmeans,
// gda) gaining more than the bandwidth-bound ones (logreg, sgd), and a
// substantial geometric mean (the paper reports 4.9×).
func TestTable5Shape(t *testing.T) {
	rows, gm, txt, err := Table5()
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	by := map[string]Table5Row{}
	for _, r := range rows {
		by[r.Name] = r
		if r.Speedup <= 1 {
			t.Errorf("%s: SARA (%d) not faster than PC (%d)\n%s", r.Name, r.SARACycles, r.PCCycles, txt)
		}
	}
	if by["kmeans"].Speedup <= by["logreg"].Speedup {
		t.Errorf("compute-bound kmeans (%.1fx) should beat bw-bound logreg (%.1fx)",
			by["kmeans"].Speedup, by["logreg"].Speedup)
	}
	if gm < 2 || gm > 20 {
		t.Errorf("Table V geo-mean %.1fx outside the plausible band (paper: 4.9x)\n%s", gm, txt)
	}
}

// TestTable6Shape pins the §IV-D comparison's structure: the 8.3× larger
// V100 wins the dense kernels on absolute throughput but loses
// area-normalized; SARA wins the streaming/sparse/divergent kernels; the
// geometric mean lands near the paper's 1.9×.
func TestTable6Shape(t *testing.T) {
	rows, gm, txt, err := Table6()
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	by := map[string]Table6Row{}
	for _, r := range rows {
		by[r.Name] = r
	}
	if by["snet"].Speedup >= 1.2 {
		t.Errorf("snet: GPU should win absolute throughput, got SARA %.2fx\n%s", by["snet"].Speedup, txt)
	}
	if by["snet"].AreaNorm <= 1 {
		t.Errorf("snet: SARA should win area-normalized, got %.2fx", by["snet"].AreaNorm)
	}
	for _, name := range []string{"pr", "rf", "ms"} {
		if by[name].Speedup <= 1 {
			t.Errorf("%s: SARA should win, got %.2fx\n%s", name, by[name].Speedup, txt)
		}
	}
	// sort's five DRAM round-trip passes serialize on both machines; SARA
	// must at least be competitive absolute and clearly ahead per area.
	if by["sort"].Speedup < 0.7 || by["sort"].AreaNorm <= 1 {
		t.Errorf("sort: speedup %.2fx / area-norm %.2fx outside expectation", by["sort"].Speedup, by["sort"].AreaNorm)
	}
	if gm < 1.1 || gm > 5 {
		t.Errorf("Table VI geo-mean %.2fx outside the plausible band (paper: 1.9x)\n%s", gm, txt)
	}
}

func TestCSVExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := map[string][]ScalePoint{
		"mlp": {{Par: 1, UsedPar: 1, Cycles: 100, Speedup: 1, PUs: 10, Fit: true}},
	}
	if err := Fig9aCSV(dir, data); err != nil {
		t.Fatalf("Fig9aCSV: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig9a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	if !strings.Contains(got, "workload,par,") || !strings.Contains(got, "mlp,1,1,100,") {
		t.Errorf("unexpected CSV:\n%s", got)
	}
	if err := Table5CSV(dir, []Table5Row{{Name: "kmeans", PCCycles: 5, SARACycles: 1, Speedup: 5, SARAPar: 64}}); err != nil {
		t.Fatalf("Table5CSV: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table5.csv")); err != nil {
		t.Errorf("table5.csv missing: %v", err)
	}
}

// TestFig9aDeterministic pins the parallel sweep's ordering contract: the
// worker pool must not let goroutine scheduling leak into results.
func TestFig9aDeterministic(t *testing.T) {
	names := []string{"mlp", "bs"}
	pars := []int{1, 4, 16}
	_, text1, err := Fig9a(names, pars, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	_, text2, err := Fig9a(names, pars, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	if text1 != text2 {
		t.Errorf("Fig9a output varies across runs:\n%s\n--- vs ---\n%s", text1, text2)
	}
}

// TestFig9bDeterministic does the same for the tradeoff-space sweep.
func TestFig9bDeterministic(t *testing.T) {
	pts1, _, err := Fig9b([]string{"bs"}, []int{16, 64}, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9b: %v", err)
	}
	pts2, _, err := Fig9b([]string{"bs"}, []int{16, 64}, arch.SARA20x20())
	if err != nil {
		t.Fatalf("Fig9b: %v", err)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("point counts differ: %d vs %d", len(pts1), len(pts2))
	}
	for i := range pts1 {
		if pts1[i] != pts2[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, pts1[i], pts2[i])
		}
	}
}

// TestForEachIndexedLowestError pins the sweep pool's error contract: the failure
// with the lowest index wins, matching what a sequential loop would report.
func TestForEachIndexedLowestError(t *testing.T) {
	err := sweep.ForEachIndexed(64, 0, func(i int) error {
		if i%7 == 3 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Errorf("err = %v, want fail at 3", err)
	}
	if err := sweep.ForEachIndexed(16, 0, func(int) error { return nil }); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func errAt(i int) error { return fmt.Errorf("fail at %d", i) }
