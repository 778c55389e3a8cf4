package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much b is worse than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// relSpread is a metric's interquartile distance as a share of its
// median; 0 for a single phase (no spread known).
func relSpread(m metricValue) float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Value)
}

// judge gives the verdict of one row against bound: unresolved when
// either side's spread is wider than the bound (the runs cannot tell),
// otherwise worse when b is worse than a by more than the bound.
func judge(d metricDef, bound float64, a, b metricValue) string {
	if relSpread(a) > bound || relSpread(b) > bound {
		return verdictUnresolved
	}
	if worsening(d.Better, a.Value, b.Value) > bound {
		return verdictWorse
	}
	return verdictOK
}

// exactPerSeed are the end-to-end metrics that do not depend on the host:
// on point, scan and cluster they are a function of seed and rows alone
// (counts summed over whole passes; the bytes the writer produced), so
// between two runs of one seed and scale any worsening at all is a
// regression. Their bounds in BENCHMARK.json are wide only because the
// driver judges spread across seeds, and each seed is another table and
// another learned layout. ingest is left out: what its reader sees
// depends on how many batches the schedule got in.
var exactPerSeed = map[string]bool{"blocks_read_frac": true, "store_bytes_per_row": true}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns the exit code: 1 when any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "a: %s  commit %s  rows %d  seed %d  %gs x %d\n", pathA, a.Commit, a.Config.Rows, a.Config.Seed, a.Config.Seconds, max(1, a.Config.Repeat))
	fmt.Fprintf(w, "b: %s  commit %s  rows %d  seed %d  %gs x %d\n", pathB, b.Commit, b.Config.Rows, b.Config.Seed, b.Config.Seconds, max(1, b.Config.Repeat))
	if a.Config.Rows != b.Config.Rows || a.Config.Seconds != b.Config.Seconds {
		fmt.Fprintln(w, "warning: the two runs differ in scale; the rows below do not compare like with like")
	}
	sameInputs := a.Config.Rows == b.Config.Rows && a.Config.Seed == b.Config.Seed
	fmt.Fprintf(w, "%-8s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	code := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.Metrics[d.Name]
			mb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			bound, shown := d.Bound, fmt.Sprintf("%.0f%%", 100*d.Bound)
			if sameInputs && exactPerSeed[d.Name] && wa.Workload != wlIngest {
				bound, shown = 0, "exact"
			}
			v := judge(d, bound, ma, mb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-8s %-20s %14.4f %14.4f %+8.1f%% %7s  %s\n",
				wa.Workload, d.Name, ma.Value, mb.Value, 100*worsening(d.Better, ma.Value, mb.Value), shown, v)
		}
		// fail_ratio may not rise above 0.
		v := verdictOK
		if wb.FailRatio > 0 && wb.FailRatio > wa.FailRatio {
			v, code = verdictWorse, 1
		}
		fmt.Fprintf(w, "%-8s %-20s %14.6f %14.6f %9s %7s  %s\n", wa.Workload, "fail_ratio", wa.FailRatio, wb.FailRatio, "", "0", v)
	}
	return code
}
