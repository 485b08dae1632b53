// Command bench is the repository's one repeatable benchmark: four workloads
// that each run a fixed, seeded list of ops — obtain a compiled design, then
// cycle-simulate it — through the direct Go API or a served sarad cluster,
// print the end-to-end metrics by name and unit, and check every output.
// With -trace it instead records a span around every call into a layer's
// public functions and prints the per-layer metrics. README.md documents the
// workloads, the metrics and how they interact.
//
//	go run ./bench                          # all workloads, end-to-end metrics
//	go run ./bench -workload kernels -trace # one workload, per-layer metrics + bench/out/trace-kernels.json
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
)

// resultFile is what -o writes: every run appended so far. A benchmark
// result claims nothing; a change that does says so in its own issue.
type resultFile struct {
	Claim *string     `json:"claim"`
	Runs  []runRecord `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResults(path string, runs []runRecord) error {
	f, err := loadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// joinTraceValue rewrites "-trace 0" / "--trace 1" (the PR driver's form) as
// "-trace=0", so the flag stays a boolean that a bare -trace switches on.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg runConfig
	workload := fl.String("workload", "", "run one workload (kernels, solver, serve-hot, serve-sweep); default all")
	fl.Int64Var(&cfg.Seed, "seed", 1, "workload seed: decides replay order, never the designs")
	fl.IntVar(&cfg.Passes, "passes", 0, "timed passes (with -trace: untraced/traced pass pairs); 0 = the workload's fixed count (2 with -trace)")
	fl.Float64Var(&cfg.Seconds, "seconds", nominalSeconds, "the PR driver's run length: scales the workloads' fixed pass counts by seconds/20")
	fl.BoolVar(&cfg.Trace, "trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json in place of the end-to-end metrics")
	fl.BoolVar(&cfg.Smoke, "smoke", false, "first 3 designs of each list only: a bit-rot check, not a measurement")
	fl.StringVar(&cfg.OutDir, "out", "bench/out", "directory for trace files and scratch stores")
	resultPath := fl.String("o", "", "append this run's records to a result file (what -compare reads)")
	compare := fl.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	if err := fl.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}

	defs := workloadDefs
	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	// Two cores is what the reference box has; pinning it keeps numbers from
	// a bigger host comparable and is stamped in every record.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	status := 0
	var records []runRecord
	for _, def := range defs {
		rec, err := runWorkload(def, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.Name, err)
			return 1
		}
		records = append(records, *rec)
		printRecord(stdout, stderr, rec)
		if rec.Failed > 0 {
			status = 1
		}
	}
	if *resultPath != "" {
		if err := appendResults(*resultPath, records); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// printRecord prints a run's metrics by name and unit, then the one-line
// JSON object the PR driver reads off the end of standard output.
func printRecord(stdout, stderr io.Writer, rec *runRecord) {
	fmt.Fprintf(stdout, "workload %s  seed %d  passes %d  samples %d  gomaxprocs %d  nproc %d  %s  git %s\n",
		rec.Workload, rec.Seed, rec.Passes, rec.Samples, rec.GOMAXPROCS, rec.NProc, rec.GoVersion, rec.GitHead)
	fmt.Fprintf(stdout, "  raw: median pass wall %.6f s at host factor %.4f (times below are raw / host factor)\n",
		median(rec.PassWallS), median(rec.HostFactors))
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
		fmt.Fprintf(stdout, "  spans written to %s\n", rec.TraceFile)
	}
	for _, m := range defs {
		if m.Name != "failed_share" { // printed below on every run, with its counts
			fmt.Fprintf(stdout, "  %-28s %16.6f %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
		}
	}
	fmt.Fprintf(stdout, "  %-28s %16.6f ratio (%d of %d ops)\n", "failed_share",
		float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
	for _, e := range rec.Errors {
		fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", rec.Workload, e)
	}
	if a, b := rec.CalibS[0], rec.CalibS[1]; max(a, b) > 1.10*min(a, b) {
		fmt.Fprintf(stderr, "bench: %s: warning: host.calib_s read %.4f s at the start and %.4f s at the end of the run; the host moved, trust medians of alternated runs only\n",
			rec.Workload, a, b)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintf(stdout, "%s\n", line)
}
