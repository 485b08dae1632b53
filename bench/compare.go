package main

import (
	"fmt"
	"io"
	"slices"
)

// series is one workload × metric over the untraced runs of a result file.
func series(f *resultFile, workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if metric == "failed_share" {
			v = append(v, float64(r.Failed)/float64(max(r.Attempted, 1)))
		} else if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// verdict judges new against old for a metric where lower is better: worse
// when the median rose by more than the bound; unresolved when the runs of
// either side spread wider than the bound, unless every new run reads better
// than every old one; ok otherwise. failed_share is absolute: any failure in
// new is worse.
func verdict(old, new []float64, bound float64, absolute bool) (ratio float64, v string) {
	if absolute {
		if slices.Max(new) > 0 {
			return 0, "worse"
		}
		return 0, "ok"
	}
	ratio = median(new) / median(old)
	if ratio-1 > bound {
		return ratio, "worse"
	}
	if max(spread(old), spread(new)) > bound && slices.Max(new) >= slices.Min(old) {
		return ratio, "unresolved"
	}
	return ratio, "ok"
}

// compareFiles prints, per workload × end-to-end metric, the old and new
// medians, their ratio with its base, the bound and the verdict. It returns
// non-zero when any metric is worse.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldF, err := loadResults(oldPath)
	if err == nil {
		var newF *resultFile
		if newF, err = loadResults(newPath); err == nil {
			return compareResults(oldF, newF, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareResults(oldF, newF *resultFile, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-12s %-13s %14s %14s  %-26s %9s %8s  %s\n",
		"workload", "metric", "old", "new", "ratio (base)", "bound", "spread", "verdict")
	metrics := append(append([]metricDef(nil), endToEnd...), metricDef{Name: "failed_share", Unit: "ratio"})
	for _, def := range workloadDefs {
		for _, m := range metrics {
			o, n := series(oldF, def.Name, m.Name), series(newF, def.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			absolute := m.Name == "failed_share"
			ratio, v := verdict(o, n, m.Bound, absolute)
			if v == "worse" {
				status = 1
			}
			base := fmt.Sprintf("%.4f (old %.6g %s)", ratio, median(o), m.Unit)
			bound := fmt.Sprintf("%.4f%%", 100*m.Bound)
			if absolute {
				base, bound = "- (absolute)", "0"
			}
			fmt.Fprintf(stdout, "%-12s %-13s %14.6f %14.6f  %-26s %9s %7.2f%%  %s (n=%d/%d)\n",
				def.Name, m.Name, median(o), median(n), base, bound,
				100*max(spread(o), spread(n)), v, len(o), len(n))
		}
	}
	return status
}
