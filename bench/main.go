// Command bench is the repo benchmark: four wall-clock SQL-over-HTTP
// workloads (point, scan, ingest, cluster) against the real handlers on
// loopback listeners, driven closed-loop by at most two client
// connections, with every answer checked against the row-at-a-time
// reference and every layer timed from outside through its exported
// entry points. See README.md.
//
//	go run . -seed 42                    all four workloads, each in a child process
//	go run . -workload scan -seed 42     one workload in this process
//	go run . -trace 1                    the traced run (per-layer metrics, spans written out)
//	go run . -compare a.json b.json      judge two result files against the bounds
//	go run . -spec                       print BENCHMARK.json from the metric definitions
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metricValue is one reported metric: the median over the run's
// repeats, with the quartiles when there was more than one.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload   string                 `json:"workload"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailRatio  float64                `json:"fail_ratio"`
	Statements int                    `json:"statements_per_pass"`
	Passes     float64                `json:"passes"`
	MeasuredS  float64                `json:"measured_s"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// resultFile is what one run writes to out/result-<seed>.json: the
// metrics beside everything needed to read them — commit, seed, scale,
// pass counts, processors and Go version.
type resultFile struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Trace      bool             `json:"trace"`
	Config     config           `json:"config"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := config{Filters: pointFilters}
	workload := fs.String("workload", "", "run one workload in this process: point, scan, ingest or cluster (default: all four, each in a child process)")
	fs.Int64Var(&cfg.Seed, "seed", 42, "seed of the data and statement generators")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "length of one measured phase")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, spans in out/trace-<workload>.json)")
	fs.IntVar(&cfg.Rows, "rows", 1_000_000, "rows of the base table")
	fs.IntVar(&cfg.Setups, "setups", 1, "times to set up; setup_s is the median")
	fs.IntVar(&cfg.Repeat, "repeat", 1, "measured phases per set-up; metrics are medians with quartiles")
	fs.StringVar(&cfg.OutDir, "out", "out", "directory for stores, result and trace files")
	corrupt := fs.Bool("corrupt-truth", false, "falsify one truth entry: the run must report failures and exit non-zero")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		data, err := benchmarkSpec(benchmarkCommand, benchmarkRunSeconds)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(data))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if cfg.Rows < 1000 || cfg.Seconds <= 0 {
		return fail(fmt.Errorf("need -rows >= 1000 and -seconds > 0"))
	}
	ro := runOpts{trace: *trace != 0, corrupt: *corrupt}
	if *workload == "" {
		return runAll(cfg, ro, args)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	out, err := runWorkload(*workload, cfg, ro)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	wr := summarize(*workload, out)
	rf := newResultFile(cfg, ro.trace)
	rf.Workloads = []workloadResult{wr}
	if err := writeResult(rf, resultPath(cfg, ro.trace, *workload)); err != nil {
		return fail(err)
	}
	printWorkload(wr)
	fmt.Println(lastLine(wr, ro.trace))
	if !wr.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// runAll runs the four workloads in order, each in a fresh child process
// of this binary so heaps and arena pools do not leak between them, and
// merges their results into out/result-<seed>.json.
func runAll(cfg config, ro runOpts, args []string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	rf := newResultFile(cfg, ro.trace)
	code := 0
	for _, name := range workloadNames {
		cmd := osexec.Command(self, append([]string{"-workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
		child, err := readResult(resultPath(cfg, ro.trace, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no result: %v\n", name, err)
			code = 1
			continue
		}
		rf.Workloads = append(rf.Workloads, child.Workloads...)
	}
	path := resultPath(cfg, ro.trace, "")
	if err := writeResult(rf, path); err != nil {
		return fail(err)
	}
	fmt.Printf("\nresult written to %s\n", path)
	return code
}

func newResultFile(cfg config, trace bool) resultFile {
	return resultFile{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Trace:      trace,
		Config:     cfg,
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout (the driver's checkouts are not repositories). It reads
// .git/HEAD itself — in the working directory, or its parent when run
// from bench/ — instead of running git, which would search parent
// directories and read the user's configuration outside the checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	if filepath.Base(wd) == "bench" {
		wd = filepath.Dir(wd)
	}
	head, err := os.ReadFile(filepath.Join(wd, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if data, err := os.ReadFile(filepath.Join(wd, ".git", ref)); err == nil {
		return short(strings.TrimSpace(string(data)))
	}
	packed, _ := os.ReadFile(filepath.Join(wd, ".git", "packed-refs")) // absent: falls through to unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return short(hash)
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// resultPath is out/result-<seed>[-trace][-<workload>].json.
func resultPath(cfg config, trace bool, workload string) string {
	name := fmt.Sprintf("result-%d", cfg.Seed)
	if trace {
		name += "-trace"
	}
	if workload != "" {
		name += "-" + workload
	}
	return filepath.Join(cfg.OutDir, name+".json")
}

func writeResult(rf resultFile, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// summarize folds a run's samples into medians (and quartiles when the
// phase was repeated).
func summarize(name string, out *outcome) workloadResult {
	wr := workloadResult{
		Workload:   name,
		Correct:    out.failed == 0 && out.attempted > 0,
		Attempted:  out.attempted,
		Failed:     out.failed,
		FailRatio:  ratio(float64(out.failed), float64(out.attempted)),
		Statements: out.listLen,
		Notes:      out.notes,
		Metrics:    map[string]metricValue{},
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			var xs []float64
			for _, s := range out.samples {
				if v, ok := s[d.Name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			mv := metricValue{Value: median(xs), Unit: d.Unit}
			if len(xs) > 1 {
				mv.Q1, mv.Q3 = quartiles(xs)
				mv.N = len(xs)
			}
			wr.Metrics[d.Name] = mv
		}
	}
	wr.Passes = ratio(wr.Metrics["client.ops"].Value, float64(out.listLen))
	wr.MeasuredS = wr.Metrics["client.measured_s"].Value
	return wr
}

// printWorkload prints every metric the run produced by name and unit.
func printWorkload(wr workloadResult) {
	fmt.Printf("\n== %s: %d statements sent, %d failed (fail_ratio %.6f); %.1f passes over %d statements in %.2f s\n",
		wr.Workload, wr.Attempted, wr.Failed, wr.FailRatio, wr.Passes, wr.Statements, wr.MeasuredS)
	for _, n := range wr.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no module prefix) first.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := wr.Metrics[n]
		if m.N > 1 {
			fmt.Printf("   %-36s %16.4f %-8s q1 %.4f q3 %.4f n %d\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("   %-36s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

// lastLine renders the driver's result object: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one.
func lastLine(wr workloadResult, trace bool) string {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{wr.Metrics[d.Name].Value, d.Unit}
	}
	data, _ := json.Marshal(struct { // plain numbers and strings always marshal
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	return string(data)
}
