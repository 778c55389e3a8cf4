package serve

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// fixtureTable builds a 1-column table with x cycling 0..999: every value
// band holds the same row count, so band queries have predictable
// selectivity.
func fixtureTable(n int) *table.Table {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
	})
	tbl := table.New(schema, n)
	for i := 0; i < n; i++ {
		tbl.AppendRow([]int64{int64(i % 1000)})
	}
	return tbl
}

// bandQuery selects x ∈ [lo, hi).
func bandQuery(name string, lo, hi int64) expr.Query {
	return expr.AndQ(name,
		expr.Pred{Col: 0, Op: expr.Ge, Literal: lo},
		expr.Pred{Col: 0, Op: expr.Lt, Literal: hi})
}

// Workload A lives in x ∈ [0, 200); workload B has drifted to [800, 1000).
// A layout planned for A leaves [200, 1000) as coarse blocks, so B scans
// most of the table until a re-layout.
func workloadA() []expr.Query {
	var w []expr.Query
	for i := 0; i < 4; i++ {
		lo := int64(i * 50)
		w = append(w, bandQuery(fmt.Sprintf("a%d", i), lo, lo+50))
	}
	return w
}

func workloadB() []expr.Query {
	var w []expr.Query
	for i := 0; i < 4; i++ {
		lo := int64(800 + i*50)
		w = append(w, bandQuery(fmt.Sprintf("b%d", i), lo, lo+50))
	}
	return w
}

// newTestRoot initializes a generation root with a layout planned for the
// given workload.
func newTestRoot(t *testing.T, tbl *table.Table, planned []expr.Query) string {
	t.Helper()
	root := t.TempDir()
	lay, err := GreedyReplan(100)(tbl, nil, planned)
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(root, tbl, lay); err != nil {
		t.Fatal(err)
	}
	return root
}

func testConfig() Config {
	return Config{
		Replan:         GreedyReplan(100),
		LogCapacity:    256,
		MinWindow:      4,
		MinImprovement: 0.10,
	}
}

func TestLogRing(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Record(Entry{Name: fmt.Sprintf("q%d", i)})
	}
	if l.Len() != 4 || l.Total() != 10 {
		t.Fatalf("len=%d total=%d", l.Len(), l.Total())
	}
	w := l.Window(0)
	if len(w) != 4 {
		t.Fatalf("window len %d", len(w))
	}
	for i, e := range w {
		if want := fmt.Sprintf("q%d", 6+i); e.Name != want || e.Seq != uint64(6+i) {
			t.Fatalf("window[%d] = %q seq %d, want %q seq %d", i, e.Name, e.Seq, want, 6+i)
		}
	}
	if got := len(l.Window(2)); got != 2 {
		t.Fatalf("window(2) len %d", got)
	}
	if got := len(l.Queries(3)); got != 3 {
		t.Fatalf("queries(3) len %d", got)
	}
}

func TestServeAndLogStats(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := cost.PerQueryMatches(tbl, workloadA(), nil)
	for i, q := range workloadA() {
		res, err := s.Execute(expr.Statement{Filter: q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Filter.RowsMatched != want[i] {
			t.Fatalf("query %s matched %d, want %d", q.Name, res.Filter.RowsMatched, want[i])
		}
		if res.Filter.SkipRate() <= 0 {
			t.Errorf("query %s skip rate %.2f; layout planned for this workload must skip", q.Name, res.Filter.SkipRate())
		}
	}
	st := s.Stats()
	if st.Queries != 4 || st.Logged != 4 || st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WindowSkipRate <= 0 {
		t.Errorf("window skip rate %.2f", st.WindowSkipRate)
	}
	if s.Rows() != 4000 {
		t.Fatalf("rows = %d", s.Rows())
	}
}

func TestQuerySQL(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.QuerySQL("x >= 10 AND x < 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsMatched != 20 { // 2000 rows cycle 0..999: each value twice
		t.Fatalf("matched %d, want 20", res.RowsMatched)
	}
	if _, err := s.QuerySQL("nope >= 1"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := s.QuerySQL("x > x"); err == nil {
		t.Error("advanced cut absent from the server's table must be rejected")
	}
}

func TestQueryRejectsUnknownAdvRef(t *testing.T) {
	tbl := fixtureTable(1000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := expr.Query{Name: "adv", Root: expr.NewAdv(0)}
	if _, err := s.Execute(expr.Statement{Filter: q}, nil); err == nil {
		t.Fatal("advanced ref beyond the server's AC table must error")
	}
}

// TestDriftTriggersRelayout is the acceptance scenario: workload B
// replayed against a layout planned for workload A crosses the drift
// threshold, the background-style check replans and swaps, and estimated
// scan cost on the window measurably improves.
func TestDriftTriggersRelayout(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, q := range workloadB() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := s.log.MeanSkipRate(0)
	rep, err := s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped {
		t.Fatalf("drifted workload must trigger a swap: %+v", rep)
	}
	if rep.CandidateFraction >= rep.LiveFraction {
		t.Fatalf("candidate %.3f not better than live %.3f", rep.CandidateFraction, rep.LiveFraction)
	}
	if rep.Improvement < 0.5 {
		t.Fatalf("improvement %.3f suspiciously small for a fully drifted window", rep.Improvement)
	}
	if rep.Generation != 2 || s.Generation() != 2 {
		t.Fatalf("generation = %d / %d", rep.Generation, s.Generation())
	}

	// The swap is visible on disk: CURRENT flipped, old generation GC'd.
	if id, _ := blockstore.CurrentGeneration(root); id != 2 {
		t.Fatalf("CURRENT = %d", id)
	}
	if ids, _ := blockstore.ListGenerations(root); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("generations on disk = %v", ids)
	}

	// Queries keep answering correctly and now skip far more.
	want := cost.PerQueryMatches(tbl, workloadB(), nil)
	for i, q := range workloadB() {
		res, err := s.Execute(expr.Statement{Filter: q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Filter.RowsMatched != want[i] {
			t.Fatalf("post-swap query %s matched %d, want %d", q.Name, res.Filter.RowsMatched, want[i])
		}
	}
	after := s.log.MeanSkipRate(4)
	if after <= before {
		t.Fatalf("skip rate did not improve: before %.3f after %.3f", before, after)
	}
}

func TestRelayoutGates(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Empty log: nothing to replan.
	rep, err := s.Relayout(false)
	if err != nil || rep.Swapped {
		t.Fatalf("empty-log check: %+v, %v", rep, err)
	}

	// Below MinWindow: the monitor path holds off.
	if _, err := s.Execute(expr.Statement{Filter: workloadA()[0]}, nil); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Relayout(false)
	if err != nil || rep.Swapped || !strings.Contains(rep.Reason, "MinWindow") {
		t.Fatalf("tiny-window check: %+v, %v", rep, err)
	}

	// Same workload the layout was planned for: improvement ~0, no swap.
	for _, q := range workloadA() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped {
		t.Fatalf("un-drifted workload must not swap: %+v", rep)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation moved to %d without drift", s.Generation())
	}

	// Forced: both gates bypassed, swap happens regardless.
	rep, err = s.Relayout(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || s.Generation() != 2 {
		t.Fatalf("forced relayout must swap: %+v gen=%d", rep, s.Generation())
	}
}

func TestNegativeThresholdMeansAnyImprovement(t *testing.T) {
	cfg := testConfig()
	cfg.MinImprovement = -1
	cfg.fillDefaults()
	if cfg.MinImprovement != 0 {
		t.Fatalf("negative threshold resolved to %v, want 0", cfg.MinImprovement)
	}
	cfg = testConfig()
	cfg.MinImprovement = 0
	cfg.fillDefaults()
	if cfg.MinImprovement != 0.10 {
		t.Fatalf("zero threshold resolved to %v, want default 0.10", cfg.MinImprovement)
	}
}

func TestExplicitWindowGrowsLog(t *testing.T) {
	cfg := testConfig()
	cfg.LogCapacity = 100
	cfg.WindowSize = 400
	cfg.fillDefaults()
	if cfg.LogCapacity != 400 || cfg.WindowSize != 400 {
		t.Fatalf("log=%d window=%d, want 400/400", cfg.LogCapacity, cfg.WindowSize)
	}
}

// At "any improvement" (negative threshold), an identical candidate must
// NOT swap on the gated path — a steady workload would otherwise rewrite
// the table on every tick.
func TestZeroImprovementDoesNotSwapAtAnyThreshold(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.MinImprovement = -1
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r := 0; r < 2; r++ {
		for _, q := range workloadA() {
			if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped {
		t.Fatalf("identical candidate swapped under 'any improvement': %+v", rep)
	}
}

func TestStatsClearsStaleError(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	failing := true
	inner := cfg.Replan
	cfg.Replan = func(tb *table.Table, acs []expr.AdvCut, w []expr.Query) (*cost.Layout, error) {
		if failing {
			return nil, fmt.Errorf("injected replan failure")
		}
		return inner(tb, acs, w)
	}
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Execute(expr.Statement{Filter: workloadA()[0]}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Relayout(true); err == nil {
		t.Fatal("injected failure must surface")
	}
	if st := s.Stats(); st.LastError == "" {
		t.Fatal("failed check must publish LastError")
	}
	failing = false
	if _, err := s.Relayout(true); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LastError != "" {
		t.Fatalf("successful check must clear LastError, still %q", st.LastError)
	}
}

func TestBackgroundMonitorSwapsOnDrift(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.CheckInterval = 5 * time.Millisecond
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never swapped; stats = %+v", s.Stats())
		}
		for _, q := range workloadB() {
			if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Generation < 2 || st.LastCheck == nil {
		t.Fatalf("stats after auto swap = %+v", st)
	}
}

func TestReopenAfterSwap(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workloadB() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := s.Relayout(true); err != nil || !rep.Swapped {
		t.Fatalf("relayout: %+v, %v", rep, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	if _, err := s.Execute(expr.Statement{Filter: workloadA()[0]}, nil); err == nil {
		t.Fatal("query after Close must error")
	}

	s2, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Generation() != 2 || s2.Rows() != 2000 {
		t.Fatalf("reopened gen=%d rows=%d", s2.Generation(), s2.Rows())
	}
	want := cost.PerQueryMatches(tbl, workloadB(), nil)
	res, err := s2.Execute(expr.Statement{Filter: workloadB()[0]}, nil)
	if err != nil || res.Filter.RowsMatched != want[0] {
		t.Fatalf("reopened query: matched=%d want=%d err=%v", res.Filter.RowsMatched, want[0], err)
	}
}

// TestConcurrentQuerySwapRace is the zero-downtime guarantee under -race:
// queries run continuously from many goroutines while forced relayouts
// swap generations. Every query must succeed, and every result must match
// the sequential ground truth (match counts are layout-invariant).
func TestConcurrentQuerySwapRace(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.LogCapacity = 64
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queries := append(workloadA(), workloadB()...)
	want := cost.PerQueryMatches(tbl, queries, nil)

	const (
		readers          = 8
		queriesPerReader = 150
		swaps            = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*queriesPerReader+swaps)
	start := make(chan struct{})

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < queriesPerReader; i++ {
				qi := (g + i) % len(queries)
				res, err := s.Execute(expr.Statement{Filter: queries[qi]}, nil)
				if err != nil {
					errs <- fmt.Errorf("reader %d query %d: %w", g, i, err)
					return
				}
				if res.Filter.RowsMatched != want[qi] {
					errs <- fmt.Errorf("reader %d: query %s matched %d, want %d (gen %d)",
						g, queries[qi].Name, res.Filter.RowsMatched, want[qi], s.Generation())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < swaps; i++ {
			// Wait for fresh traffic so a forced cycle always has a window.
			for s.log.Total() < uint64((i+1)*8) {
				time.Sleep(time.Millisecond)
			}
			if rep, err := s.Relayout(true); err != nil {
				errs <- fmt.Errorf("relayout %d: %w", i, err)
				return
			} else if !rep.Swapped {
				errs <- fmt.Errorf("relayout %d did not swap: %+v", i, rep)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Swaps != swaps || st.Generation != 1+swaps {
		t.Fatalf("swaps=%d generation=%d, want %d/%d", st.Swaps, st.Generation, swaps, 1+swaps)
	}
	if st.Queries != readers*queriesPerReader {
		t.Fatalf("served %d queries, want %d (zero may fail during swaps)", st.Queries, readers*queriesPerReader)
	}
	// Disk state is consistent: only the live generation (plus none kept)
	// remains, and it reopens.
	ids, err := blockstore.ListGenerations(root)
	if err != nil || len(ids) != 1 || ids[0] != st.Generation {
		t.Fatalf("generations = %v (err %v), want just %d", ids, err, st.Generation)
	}
	if _, _, err := blockstore.OpenCurrent(root); err != nil {
		t.Fatal(err)
	}
}

func TestNewRequiresReplanAndCurrent(t *testing.T) {
	if _, err := New(t.TempDir(), Config{}); err == nil {
		t.Error("missing Replan must error")
	}
	if _, err := New(t.TempDir(), Config{Replan: GreedyReplan(10)}); err == nil {
		t.Error("root without CURRENT must error")
	}
	if _, err := os.Stat("/"); err != nil {
		t.Skip("fs sanity")
	}
}

// TestSummaryEnvelopeAndPartials covers the shard-facing surface a
// cluster front door consumes: the envelope summary, its MayMatch
// pruning contract, and the unfinalized partial-aggregation path.
func TestSummaryEnvelopeAndPartials(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.ShardLabel = "shard_007"
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sum := s.Summary()
	if sum.Shard != "shard_007" || sum.Rows != 2000 || sum.Blocks == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Min[0] != 0 || sum.Max[0] != 999 {
		t.Fatalf("envelope = [%d, %d], want [0, 999]", sum.Min[0], sum.Max[0])
	}
	if !sum.MayMatch(bandQuery("hit", 100, 150)) {
		t.Error("in-envelope query must not be pruned")
	}
	if sum.MayMatch(bandQuery("miss", 5000, 6000)) {
		t.Error("out-of-envelope query should be pruned")
	}

	// Uncompacted delta rows make the shard unprunable: the envelope
	// only describes base blocks.
	if err := s.Insert([][]int64{{42}}); err != nil {
		t.Fatal(err)
	}
	sum2 := s.Summary()
	if sum2.DeltaRows != 1 || !sum2.MayMatch(bandQuery("miss", 5000, 6000)) {
		t.Errorf("delta rows must defeat pruning: %+v", sum2)
	}

	// SelectPartial returns mergeable accumulator state, not finals.
	aq := expr.AggQuery{
		Name:   "cnt",
		Aggs:   []expr.Agg{{Func: expr.AggCountStar}},
		Filter: bandQuery("band", 0, 200),
	}
	pr, err := s.Execute(expr.Statement{Agg: &aq, Partial: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.AggPartial == nil || pr.Generation != sum.Generation {
		t.Fatalf("partial = %+v", pr)
	}
	if pr.AggPartial.Grouped {
		t.Error("global aggregate must not be grouped")
	}

	if got := s.log.String(); !strings.Contains(got, "serve.Log{") {
		t.Errorf("Log.String = %q", got)
	}
}
