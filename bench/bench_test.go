package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// TestManifest holds BENCHMARK.json at the repository root to the tables
// the program prints from.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest has %+v, program has %s: %s", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest has %+v, program has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound in manifest does not match %v", kind, w.Name, w.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if len(m.Command) == 0 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestSeedKeepsTheDesigns: the seed may reorder a list but never change
// which ops are in it, or sim_cycles and pus would move with the seed.
func TestSeedKeepsTheDesigns(t *testing.T) {
	multiset := func(l opList) []op {
		ops := append([]op(nil), l.Ops...)
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Design != ops[j].Design {
				return ops[i].Design < ops[j].Design
			}
			return ops[i].ToOwner && !ops[j].ToOwner
		})
		return ops
	}
	for _, def := range workloadDefs {
		a, b := def.generate(1, false), def.generate(2, false)
		ma, mb := multiset(a), multiset(b)
		if len(ma) != len(mb) {
			t.Fatalf("%s: %d ops under seed 1, %d under seed 2", def.Name, len(ma), len(mb))
		}
		reordered := false
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("%s: seeds 1 and 2 hold different ops", def.Name)
			}
			reordered = reordered || a.Ops[i] != b.Ops[i]
		}
		if !reordered {
			t.Errorf("%s: seeds 1 and 2 replay in the same order", def.Name)
		}
	}
}

// TestPassCountIsFixed: how many passes a run makes follows from the flags
// alone, never from how fast anything ran.
func TestPassCountIsFixed(t *testing.T) {
	def := workloadDef{Passes: 5}
	for _, tc := range []struct {
		cfg  runConfig
		want int
	}{
		{runConfig{Seconds: nominalSeconds}, 5},
		{runConfig{Seconds: 2 * nominalSeconds}, 10},
		{runConfig{Seconds: 1}, 2},
		{runConfig{Seconds: nominalSeconds, Passes: 3}, 3},
		{runConfig{Seconds: nominalSeconds, Trace: true}, 2},
	} {
		if got := tc.cfg.passes(def); got != tc.want {
			t.Errorf("%+v: %d passes, want %d", tc.cfg, got, tc.want)
		}
	}
}

// resultLine is the one-line JSON object a run ends its output with.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

// resultLines decodes every result line on stdout.
func resultLines(t *testing.T, stdout string) []resultLine {
	t.Helper()
	var out []resultLine
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// TestSmoke runs the -smoke cut of every workload, untraced and traced, and
// checks the output schema, then that -compare of the result file with
// itself reports every row ok.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results.json")
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"-trace=0", endToEnd}, {"-trace=1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-passes", "1", tc.trace, "-out", dir, "-o", results}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", tc.trace, code, stdout.String(), stderr.String())
		}
		lines := resultLines(t, stdout.String())
		if len(lines) != len(workloadDefs) {
			t.Fatalf("%s: %d result lines, want %d", tc.trace, len(lines), len(workloadDefs))
		}
		for i, r := range lines {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", tc.trace, workloadDefs[i].Name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(tc.defs) {
				t.Errorf("%s %s: %d metrics, want %d", tc.trace, workloadDefs[i].Name, len(r.Metrics), len(tc.defs))
			}
			for _, m := range tc.defs {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s %s: metric %s = %+v (present %v), want unit %s", tc.trace, workloadDefs[i].Name, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
	for _, def := range workloadDefs {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+def.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Workload string
			Spans    []span
		}
		if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != def.Name || len(tf.Spans) == 0 {
			t.Fatalf("trace file of %s: err %v, %d spans", def.Name, err, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.DurNS <= 0 || s.Parent >= s.ID || !strings.HasPrefix(tf.Spans[max(s.Parent, 1)-1].Name, "op ") {
				t.Fatalf("trace file of %s: bad span %+v", def.Name, s)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", results, results}, &stdout, &stderr); code != 0 {
		t.Fatalf("-compare of a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	rows := strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:]
	if want := len(workloadDefs) * (len(endToEnd) + 1); len(rows) != want {
		t.Errorf("-compare printed %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if !strings.Contains(row, " ok (") {
			t.Errorf("-compare of a file with itself: %s", row)
		}
	}
}

// TestPassesRepeat: two serve passes from fresh state give identical
// simulated results and identical compile and proxy counts. (On the direct
// workloads TestSmoke covers it: a pass whose totals differ from the first
// pass's is a failed op.)
func TestPassesRepeat(t *testing.T) {
	for _, def := range workloadDefs {
		if !def.Serve {
			continue
		}
		r := newServeBench(def.generate(1, true), t.TempDir())
		check := &passResult{}
		r.setup(check)
		a, b := r.pass(nil), r.pass(nil)
		if n := check.Failed + a.Failed + b.Failed; n > 0 {
			t.Fatalf("%s: %d failed ops: %v %v %v", def.Name, n, check.Errs, a.Errs, b.Errs)
		}
		if a.Cycles != b.Cycles || a.PUs != b.PUs || a.Cycles == 0 || a.PUs == 0 {
			t.Errorf("%s: passes differ: cycles %d/%d pus %d/%d", def.Name, a.Cycles, b.Cycles, a.PUs, b.PUs)
		}
		for _, k := range []string{"server.compiles", "server.proxy_success"} {
			if a.Layers[k] != b.Layers[k] || a.Layers[k] == 0 {
				t.Errorf("%s: %s = %v then %v", def.Name, k, a.Layers[k], b.Layers[k])
			}
		}
	}
}
