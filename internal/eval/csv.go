package eval

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// WriteCSV writes rows (with a header) to dir/name.csv.
func WriteCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// Fig9aCSV exports the scalability sweep.
func Fig9aCSV(dir string, data map[string][]ScalePoint) error {
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows [][]string
	for _, name := range names {
		for _, p := range data[name] {
			rows = append(rows, []string{
				name, strconv.Itoa(p.Par), strconv.Itoa(p.UsedPar),
				strconv.FormatInt(p.Cycles, 10),
				fmt.Sprintf("%.4f", p.Speedup),
				strconv.Itoa(p.PUs),
				strconv.FormatBool(p.DRAMBound), strconv.FormatBool(p.Fit),
			})
		}
	}
	return WriteCSV(dir, "fig9a",
		[]string{"workload", "par", "used_par", "cycles", "speedup", "pus", "dram_bound", "fit"}, rows)
}

// Fig9bCSV exports the tradeoff space.
func Fig9bCSV(dir string, pts []TradeoffPoint) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			p.Workload, strconv.Itoa(p.Par), p.OptSet,
			strconv.FormatInt(p.Cycles, 10), strconv.Itoa(p.PUs),
			fmt.Sprintf("%.4f", p.Perf), strconv.FormatBool(p.Pareto),
		})
	}
	return WriteCSV(dir, "fig9b",
		[]string{"workload", "par", "opts", "cycles", "pus", "perf", "pareto"}, rows)
}

// Fig10CSV exports the optimization ablation.
func Fig10CSV(dir string, effects []OptEffect) error {
	var rows [][]string
	for _, e := range effects {
		rows = append(rows, []string{
			e.Workload, e.Opt,
			fmt.Sprintf("%.4f", e.Slowdown), fmt.Sprintf("%.4f", e.ResourceRatio),
		})
	}
	return WriteCSV(dir, "fig10", []string{"workload", "disabled", "slowdown", "resource_ratio"}, rows)
}

// Fig11CSV exports the algorithm comparison.
func Fig11CSV(dir string, rs []AlgoResult) error {
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Workload, r.Algo, strconv.Itoa(r.PUs),
			fmt.Sprintf("%.4f", r.Normalized),
			strconv.FormatInt(int64(r.Compile/time.Microsecond), 10),
		})
	}
	return WriteCSV(dir, "fig11", []string{"workload", "algorithm", "pus", "normalized", "compile_us"}, rows)
}

// Table5CSV exports the vanilla-compiler comparison.
func Table5CSV(dir string, rows5 []Table5Row) error {
	var rows [][]string
	for _, r := range rows5 {
		rows = append(rows, []string{
			r.Name, strconv.FormatInt(r.PCCycles, 10), strconv.FormatInt(r.SARACycles, 10),
			fmt.Sprintf("%.4f", r.Speedup), strconv.Itoa(r.SARAPar),
		})
	}
	return WriteCSV(dir, "table5", []string{"kernel", "pc_cycles", "sara_cycles", "speedup", "sara_par"}, rows)
}

// Table6CSV exports the GPU comparison.
func Table6CSV(dir string, rows6 []Table6Row) error {
	var rows [][]string
	for _, r := range rows6 {
		rows = append(rows, []string{
			r.Name, fmt.Sprintf("%.6g", r.SARASeconds), fmt.Sprintf("%.6g", r.GPUSeconds),
			fmt.Sprintf("%.4f", r.Speedup), fmt.Sprintf("%.4f", r.AreaNorm), strconv.Itoa(r.SARAPar),
		})
	}
	return WriteCSV(dir, "table6", []string{"kernel", "sara_s", "v100_s", "speedup", "area_norm", "sara_par"}, rows)
}
