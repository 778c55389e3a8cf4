package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/qd"
)

// smokeConfig is the -short scale: 20k rows, 120 seeded filters, phases
// of a fraction of a second — a few seconds for all four workloads.
func smokeConfig(t *testing.T) config {
	return config{Rows: 20_000, Seed: 42, Filters: 120, Seconds: 0.4, Setups: 1, Repeat: 1, OutDir: t.TempDir()}
}

func sqlTexts(list []*stmt) []string {
	out := make([]string, len(list))
	for i, st := range list {
		out[i] = st.SQL
	}
	return out
}

func TestStatementListsFollowTheSeed(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Rows = 5000
	build := func(name string, seed int64) []string {
		c := cfg
		c.Seed = seed
		spec := generate(name, c)
		var list []*stmt
		var err error
		if name == wlScan {
			list, err = scanStatements(spec, seed)
		} else {
			list, err = pointStatements(spec, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sqlTexts(list)
	}
	for _, name := range []string{wlPoint, wlScan} {
		a, b, c := build(name, 42), build(name, 42), build(name, 43)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: two lists from seed 42 differ", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 42 and 43 give the same list", name)
		}
	}
	point := build(wlPoint, 42)
	if want := 2 * cfg.Filters; len(point) != want {
		t.Errorf("point list has %d statements, want %d", len(point), want)
	}
	if scan := build(wlScan, 42); len(scan) != 150+12+8 {
		t.Errorf("scan list has %d statements, want 170", len(scan))
	}
}

func TestPointListShape(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Rows = 5000
	spec := generate(wlPoint, cfg)
	list, err := pointStatements(spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	rowTexts := map[string]bool{}
	for _, st := range list {
		n[st.Class]++
		if st.Class == classRows {
			rowTexts[st.SQL] = true
		}
	}
	if n[classFilter] != cfg.Filters || n[classAgg] != cfg.Filters/2 || n[classRows] != cfg.Filters/2 {
		t.Errorf("class counts %v, want %d filters and %d of agg and rows each", n, cfg.Filters, cfg.Filters/2)
	}
	reader := readerStatements(list, readerStride)
	if len(reader) == 0 || len(reader) >= len(list) {
		t.Errorf("reader list has %d of %d statements", len(reader), len(list))
	}
	classes := map[string]bool{}
	for _, st := range reader {
		classes[st.Class] = true
	}
	if len(classes) != 3 {
		t.Errorf("reader list covers classes %v, want all three", classes)
	}
}

// The match counts the benchmark checks filters against are the ones
// qd.PerQueryMatches computes.
func TestMatchRowsAgreesWithPerQueryMatches(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Rows = 5000
	spec := generate(wlPoint, cfg)
	keep := make([]bool, len(spec.Queries))
	for i := range keep {
		keep[i] = i%2 == 0
	}
	counts, ids := matchRows(spec.Table, spec.Queries, spec.ACs, keep)
	want := qd.PerQueryMatches(spec.Table, spec.Queries, spec.ACs)
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("filter %d: %d matches, qd.PerQueryMatches says %d", i, counts[i], want[i])
		}
		if keep[i] && int64(len(ids[i])) != want[i] {
			t.Fatalf("filter %d: kept %d row ids for %d matches", i, len(ids[i]), want[i])
		}
	}
}

// TestSmoke runs every workload once, untraced and traced, at the smoke
// scale: every answer must match the reference and every declared metric
// of the mode must be reported.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			label := name
			if trace {
				label += "/trace"
			}
			t.Run(label, func(t *testing.T) {
				cfg := smokeConfig(t)
				out, err := runWorkload(name, cfg, runOpts{trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("%d of %d statements failed (%v)", out.failed, out.attempted, out.notes)
				}
				wr := summarize(name, out)
				if !wr.Correct || wr.FailRatio != 0 {
					t.Fatalf("correct=%v fail_ratio=%v", wr.Correct, wr.FailRatio)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				var last struct {
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lastLine(wr, trace)), &last); err != nil {
					t.Fatal(err)
				}
				if len(last.Metrics) != len(defs) {
					t.Errorf("last line carries %d metrics, want %d", len(last.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := last.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or unit %q != %q", d.Name, m.Unit, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+name+".json")); err != nil {
						t.Errorf("no span file written: %v", err)
					}
				}
				if entries, _ := filepath.Glob(filepath.Join(cfg.OutDir, "store-*")); len(entries) != 0 {
					t.Errorf("stores left behind: %v", entries)
				}
			})
		}
	}
}

// A falsified truth entry must be caught: fail_ratio > 0 and a non-zero
// exit, on a static workload and on ingest (whose verifier is its own).
func TestCorruptedTruthFails(t *testing.T) {
	for _, name := range []string{wlPoint, wlIngest} {
		cfg := smokeConfig(t)
		out, err := runWorkload(name, cfg, runOpts{corrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if wr := summarize(name, out); wr.Correct || wr.FailRatio <= 0 {
			t.Errorf("%s: corrupted truth went unnoticed: correct=%v fail_ratio=%v", name, wr.Correct, wr.FailRatio)
		}
	}
	dir := t.TempDir()
	code := run([]string{"-workload", wlPoint, "-rows", "20000", "-seconds", "0.2", "-out", dir, "-corrupt-truth"})
	if code == 0 {
		t.Error("run exits 0 with a corrupted truth entry")
	}
	if code := run([]string{"-workload", "nosuch", "-out", dir}); code == 0 {
		t.Error("run exits 0 for an unknown workload")
	}
}

// BENCHMARK.json at the repository root is what -spec prints, and stays
// inside the driver's limits.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	want, err := benchmarkSpec(benchmarkCommand, benchmarkRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("../BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range workloadNames {
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w)
		}
	}
}

// Between two runs of one seed and scale the count metrics must not get
// worse at all on the static workloads; across seeds, and on ingest, the
// declared bound applies.
func TestCompareExactPerSeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, frac float64) string {
		rf := resultFile{Commit: name, Config: config{Rows: 1000, Seed: seed, Seconds: 1}}
		for _, wl := range []string{wlPoint, wlIngest} {
			rf.Workloads = append(rf.Workloads, workloadResult{Workload: wl,
				Metrics: map[string]metricValue{"blocks_read_frac": {Value: frac, Unit: "ratio"}}})
		}
		path := filepath.Join(dir, name+".json")
		if err := writeResult(rf, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 42, 0.0200)
	var buf bytes.Buffer
	if code := compareFiles(&buf, base, write("again", 42, 0.0200)); code != 0 {
		t.Errorf("identical counts compare as exit %d:\n%s", code, buf.String())
	}
	if code := compareFiles(&buf, base, write("fewer", 42, 0.0190)); code != 0 {
		t.Errorf("fewer blocks read compares as exit %d", code)
	}
	buf.Reset()
	if code := compareFiles(&buf, base, write("more", 42, 0.0201)); code == 0 {
		t.Errorf("0.5%% more blocks read at the same seed must compare as worse:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), verdictWorse); n != 1 {
		t.Errorf("want point worse and ingest within its bound, got %d worse rows:\n%s", n, buf.String())
	}
	if code := compareFiles(&buf, base, write("other-seed", 43, 0.0220)); code != 0 {
		t.Errorf("another seed within the bound compares as exit %d", code)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps, p50, failRatio float64) string {
		rf := resultFile{Commit: name, Config: config{Rows: 1000, Seconds: 1}, Workloads: []workloadResult{{
			Workload: wlPoint, FailRatio: failRatio,
			Metrics: map[string]metricValue{
				"query_qps":    {Value: qps, Unit: "1/s"},
				"query_p50_ms": {Value: p50, Unit: "ms"},
			},
		}}}
		path := filepath.Join(dir, name+".json")
		if err := writeResult(rf, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 1000, 1.0, 0)
	same := write("same", 980, 1.03, 0)
	slow := write("slow", 700, 1.0, 0)
	wrong := write("wrong", 1000, 1.0, 0.01)
	var buf bytes.Buffer
	if code := compareFiles(&buf, base, same); code != 0 {
		t.Errorf("runs within the bounds compare as exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "query_qps") || !strings.Contains(buf.String(), verdictOK) {
		t.Errorf("comparison table lacks its rows:\n%s", buf.String())
	}
	buf.Reset()
	if code := compareFiles(&buf, base, slow); code == 0 || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("a 30%% qps drop must compare as worse (exit %d):\n%s", code, buf.String())
	}
	if code := compareFiles(&buf, base, wrong); code == 0 {
		t.Error("a fail_ratio above 0 must compare as worse")
	}
}
