package qd_test

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/blockstore"
	"repro/qd"
)

// newMicroServer bootstraps a serving root from a greedy plan of the
// micro dataset and opens a Server on it.
func newMicroServer(t *testing.T, ds *qd.Dataset) *qd.Server {
	t.Helper()
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := qd.InitServing(root, ds.Table, plan); err != nil {
		t.Fatal(err)
	}
	srv, err := qd.NewServer(root, qd.ServeOptions{ACs: ds.ACs, Plan: qd.PlanOptions{MinBlockSize: 200}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// checkWritesClosed asserts that every write-path method of a closed
// server fails with ErrServerClosed.
func checkWritesClosed(t *testing.T, srv *qd.Server) {
	t.Helper()
	for name, call := range map[string]func() error{
		"insert":  func() error { return srv.Insert([][]int64{{1, 1, 0}}) },
		"flush":   srv.Flush,
		"compact": srv.Compact,
	} {
		if err := call(); !errors.Is(err, qd.ErrServerClosed) {
			t.Errorf("%s after close: %v, want ErrServerClosed", name, err)
		}
	}
}

// TestServerWriteLifecycle walks the one live write path end to end:
// inserts are schema-checked and served at once, Flush and Compact are
// idempotent with nothing new, compacted rows still answer, and after
// Close every write-path method fails with ErrServerClosed.
func TestServerWriteLifecycle(t *testing.T) {
	ds := microDataset(t)
	srv := newMicroServer(t, ds)
	extra := [][]int64{{5, 5, 0}, {6, 6, 1}}
	if err := srv.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert([][]int64{{1, 2}}); err == nil {
		t.Fatal("short row must be rejected")
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal("Flush with nothing buffered:", err)
	}
	if srv.Rows() != ds.Table.N+len(extra) {
		t.Fatalf("rows %d, want %d", srv.Rows(), ds.Table.N+len(extra))
	}

	ref := qd.NewTable(ds.Table.Schema, ds.Table.N+len(extra))
	ref.Concat(ds.Table)
	for _, row := range extra {
		ref.AppendRow(row)
	}
	check := func(when string) {
		t.Helper()
		exact := qd.PerQueryMatches(ref, ds.Queries, ds.ACs)
		for i, q := range ds.Queries {
			res, err := serverFilter(srv, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, q.Name, err)
			}
			if res.RowsMatched != exact[i] {
				t.Fatalf("%s: %s matched %d, want %d", when, q.Name, res.RowsMatched, exact[i])
			}
		}
	}
	check("before compaction")
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	gen := srv.Generation()
	if gen == 1 {
		t.Fatal("compaction with a full delta must install a new generation")
	}
	check("after compaction")
	// Idempotent with nothing new: no generation is written.
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	if srv.Generation() != gen {
		t.Fatalf("empty compaction moved the generation %d -> %d", gen, srv.Generation())
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	checkWritesClosed(t, srv)
}

// TestServerWriteAfterClose closes a server that still buffers an
// unflushed insert: Close seals it without error, and every write-path
// method called afterwards fails with ErrServerClosed.
func TestServerWriteAfterClose(t *testing.T) {
	srv := newMicroServer(t, microDataset(t))
	if err := srv.Insert([][]int64{{1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	checkWritesClosed(t, srv)
}

// TestServerDeltaSurvivesReopen pins the durability path: rows inserted
// through a server and sealed (here by Close) are recovered when the
// root is reopened and served before any compaction; compaction then
// folds them and deletes their segments.
func TestServerDeltaSurvivesReopen(t *testing.T) {
	ds := microDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := qd.InitServing(root, ds.Table, plan); err != nil {
		t.Fatal(err)
	}
	open := func() *qd.Server {
		srv, err := qd.NewServer(root, qd.ServeOptions{Plan: qd.PlanOptions{MinBlockSize: 200}})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	if err := srv.Insert([][]int64{{50, 50, 0}, {51, 51, 1}, {52, 52, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // seals the memtable to disk
		t.Fatal(err)
	}

	segs := func() []blockstore.DeltaSegment {
		t.Helper()
		s, warns, err := blockstore.ScanDeltaSegments(filepath.Join(root, "delta"), ds.Table.Schema.NumCols())
		if err != nil || len(warns) != 0 {
			t.Fatalf("scan delta segments: %v %v", err, warns)
		}
		return s
	}
	if len(segs()) == 0 {
		t.Fatal("Close must seal the delta to a segment")
	}
	srv = open()
	defer func() { srv.Close() }()
	if n := srv.Stats().DeltaRows; n != 3 {
		t.Fatalf("recovered %d delta rows, want 3", n)
	}
	qs, _, err := qd.ParseWorkload(ds.Table.Schema, []string{"ship >= 50 AND ship <= 52"})
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	want := qd.PerQueryMatches(ds.Table, []qd.Query{q}, nil)[0] + 3
	res, err := serverFilter(srv, q)
	if err != nil || res.RowsMatched != want || res.DeltaRows != 3 {
		t.Fatalf("matched %d delta %d err %v, want %d matched over 3 recovered rows", res.RowsMatched, res.DeltaRows, err, want)
	}
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	res, err = serverFilter(srv, q)
	if err != nil || res.RowsMatched != want || res.DeltaRows != 0 {
		t.Fatalf("post-compaction: matched %d delta %d err %v", res.RowsMatched, res.DeltaRows, err)
	}
	if s := segs(); len(s) != 0 {
		t.Fatalf("segments %v survive compaction", s)
	}
	// Reopened after the compaction, the server serves the rows from its
	// new generation alone.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv = open()
	res, err = serverFilter(srv, q)
	if err != nil || res.RowsMatched != want || res.DeltaRows != 0 {
		t.Fatalf("after reopen: matched %d delta %d err %v", res.RowsMatched, res.DeltaRows, err)
	}
}

// TestCompactionRestoresSkipRate is the acceptance gate: after folding a
// 20% insert stream into a fresh generation, the server's skip rate on
// the workload must come within 5 points of a cold bulk load of the same
// rows.
func TestCompactionRestoresSkipRate(t *testing.T) {
	tbl, queries, acs := randomSpec(7)
	base, stream := splitSpec(tbl, 0.8)
	popt := qd.PlanOptions{MinBlockSize: 300}
	plan, err := qd.GreedyPlanner{}.Plan(qd.NewDataset(tbl.Schema, base).WithQueries(queries, acs), popt)
	if err != nil {
		t.Fatal(err)
	}
	skipRate := func(run func(qd.Query) (qd.ExecResult, error)) float64 {
		var scanned, total int64
		for _, q := range queries {
			res, err := run(q)
			if err != nil {
				t.Fatal(err)
			}
			scanned += res.RowsScanned
			total += res.RowsTotal
		}
		return 1 - float64(scanned)/float64(total)
	}

	// Cold baseline: bulk-load base+stream in one shot with the same plan
	// options.
	coldPlan, err := qd.GreedyPlanner{}.Plan(qd.NewDataset(tbl.Schema, tbl).WithQueries(queries, acs), popt)
	if err != nil {
		t.Fatal(err)
	}
	coldStore, err := qd.WriteStore(t.TempDir(), tbl, coldPlan.Layout)
	if err != nil {
		t.Fatal(err)
	}
	coldEng, err := qd.NewEngine(coldStore, coldPlan, qd.EngineDBMS, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coldEng.Close()
	cold := skipRate(coldEng.Query)

	root := t.TempDir()
	if err := qd.InitServing(root, base, plan); err != nil {
		t.Fatal(err)
	}
	srv, err := qd.NewServer(root, qd.ServeOptions{ACs: acs, Plan: popt})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	query := func(q qd.Query) (qd.ExecResult, error) { return serverFilter(srv, q) }
	before := skipRate(query)
	if err := srv.Insert(stream); err != nil {
		t.Fatal(err)
	}
	during := skipRate(query)
	if during >= before {
		t.Fatalf("skip rate %.3f with a full delta, %.3f without — unpruned delta rows must cost something", during, before)
	}
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := skipRate(query); math.Abs(after-cold) > 0.05 {
		t.Fatalf("post-compaction skip %.3f vs cold bulk-load %.3f (diff %.3f > 0.05)", after, cold, math.Abs(after-cold))
	}
}
