package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// insertRows builds n rows with the fixture schema, all carrying value x.
func insertRows(n int, x int64) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{x}
	}
	return rows
}

func TestInsertVisibleBeforeCompaction(t *testing.T) {
	tbl := fixtureTable(2000) // x cycles 0..999: every value twice
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q := bandQuery("probe", 500, 501)
	res, err := s.Execute(expr.Statement{Filter: q}, nil)
	if err != nil || res.Filter.RowsMatched != 2 {
		t.Fatalf("base: matched %d err %v, want 2", res.Filter.RowsMatched, err)
	}
	if err := s.Insert(insertRows(5, 500)); err != nil {
		t.Fatal(err)
	}
	res, err = s.Execute(expr.Statement{Filter: q}, nil)
	if err != nil || res.Filter.RowsMatched != 7 {
		t.Fatalf("after insert: matched %d err %v, want 7 (visible immediately)", res.Filter.RowsMatched, err)
	}
	if res.Filter.DeltaRows != 5 {
		t.Fatalf("DeltaRows %d, want 5", res.Filter.DeltaRows)
	}
	if s.Rows() != 2005 {
		t.Fatalf("Rows() %d, want 2005", s.Rows())
	}
	st := s.Stats()
	if st.DeltaRows != 5 || st.RowsIngested != 5 || st.FreshnessSeconds <= 0 {
		t.Fatalf("stats %+v: want 5 delta rows and positive freshness", st)
	}
	if st.Compactions != 0 || st.WriteAmplification != 0 {
		t.Fatalf("no compaction ran yet: %+v", st)
	}
}

func TestCompactionFoldsDeltaIntoFreshGeneration(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.MemtableRows = 4 // several sealed segments
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Insert(insertRows(10, 500)); err != nil {
		t.Fatal(err)
	}
	// Log some traffic so the compaction has a window to replan over.
	for _, q := range workloadA() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.RunCompaction(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Rows != 10 || rep.Generation != 2 {
		t.Fatalf("report %+v, want swap of 10 rows into generation 2", rep)
	}
	if rep.Routed != "replan" && rep.Routed != "tree" {
		t.Fatalf("routed %q", rep.Routed)
	}
	if rep.BytesWritten <= 0 || rep.WriteAmplification <= 0 {
		t.Fatalf("report %+v: compaction must account its writes", rep)
	}

	// The folded rows still answer queries, now from the base.
	res, err := s.Execute(expr.Statement{Filter: bandQuery("probe", 500, 501)}, nil)
	if err != nil || res.Filter.RowsMatched != 12 {
		t.Fatalf("post-compaction: matched %d err %v, want 12", res.Filter.RowsMatched, err)
	}
	if res.Filter.DeltaRows != 0 {
		t.Fatalf("post-compaction DeltaRows %d, want 0", res.Filter.DeltaRows)
	}
	st := s.Stats()
	if st.DeltaRows != 0 || st.Compactions != 1 || st.CompactedRows != 10 {
		t.Fatalf("stats %+v", st)
	}
	if st.LastCompact == nil || !st.LastCompact.Swapped {
		t.Fatalf("LastCompact %+v", st.LastCompact)
	}
	// Segment files are gone and the marker is cleared.
	segs, _ := filepath.Glob(filepath.Join(deltaDir(root), "delta_*.qdb"))
	if len(segs) != 0 {
		t.Fatalf("segment files survive compaction: %v", segs)
	}
	if m, err := delta.ReadMarker(deltaDir(root)); err != nil || m != nil {
		t.Fatalf("marker %+v err %v, want cleared", m, err)
	}
	// The store reopens: exactly one generation, consistent catalog.
	if _, _, err := blockstore.OpenCurrent(root); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionGates(t *testing.T) {
	tbl := fixtureTable(1000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.CompactRows = 100
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rep, err := s.RunCompaction(false)
	if err != nil || rep.Swapped {
		t.Fatalf("empty delta: %+v err %v, want gated", rep, err)
	}
	if err := s.Insert(insertRows(10, 1)); err != nil {
		t.Fatal(err)
	}
	rep, err = s.RunCompaction(false)
	if err != nil || rep.Swapped {
		t.Fatalf("below CompactRows: %+v err %v, want gated", rep, err)
	}
	rep, err = s.RunCompaction(true)
	if err != nil || !rep.Swapped {
		t.Fatalf("forced: %+v err %v, want swap", rep, err)
	}
}

// TestMarkerRecovery pins the crash-recovery invariant: a marker whose
// generation is live (or older) means the flip committed, so the listed
// segments are duplicates and are deleted; a marker naming a generation
// that never became live means the segments are still the only copy.
func TestMarkerRecovery(t *testing.T) {
	tbl := fixtureTable(1000)
	root := newTestRoot(t, tbl, workloadA())
	dd := deltaDir(root)

	// Seed two durable segments.
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(insertRows(6, 42)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dd, "delta_*.qdb"))
	if len(segs) == 0 {
		t.Fatal("fixture needs durable segments")
	}

	// Crash case A: flip never committed (marker names a future gen).
	// Segments must survive.
	if err := delta.WriteMarker(dd, delta.Marker{Gen: 99, Segs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	s, err = New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DeltaRows; got != 6 {
		t.Fatalf("pre-flip crash: delta rows %d, want 6 kept", got)
	}
	if m, _ := delta.ReadMarker(dd); m != nil {
		t.Fatal("marker must be cleared after recovery")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash case B: flip committed (marker names the live gen), crash
	// before segment deletion. The listed segments are duplicates and
	// must be dropped.
	if err := delta.WriteMarker(dd, delta.Marker{Gen: 1, Segs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	s, err = New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().DeltaRows; got != 0 {
		t.Fatalf("post-flip crash: delta rows %d, want 0 (duplicates deleted)", got)
	}
	if _, err := os.Stat(filepath.Join(dd, blockstore.DeltaSegName(0))); !os.IsNotExist(err) {
		t.Fatal("duplicate segment file must be deleted")
	}
	if m, _ := delta.ReadMarker(dd); m != nil {
		t.Fatal("marker must be cleared after recovery")
	}
}

func TestInsertAfterCloseReturnsErrClosed(t *testing.T) {
	tbl := fixtureTable(500)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(insertRows(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
}

// TestConcurrentInsertQueryCompactRace extends TestConcurrentQuerySwapRace
// to the write path: 8 readers verify ground-truth counts while an insert
// stream and 5 forced compactions run. Bands the writer never touches
// must match exactly on every read; the written band must grow
// monotonically; the final state must be exact.
func TestConcurrentInsertQueryCompactRace(t *testing.T) {
	tbl := fixtureTable(4000) // every value 0..999 appears 4 times
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.MemtableRows = 16
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		readers     = 8
		reads       = 120
		compactions = 5
		batches     = 40
		batchRows   = 5
	)
	stable := bandQuery("stable", 0, 200) // writer never inserts here: always 800
	hot := bandQuery("hot", 500, 501)     // writer only inserts x=500: base 4, grows

	var inserted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	start := make(chan struct{})

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			lastHot := int64(0)
			for i := 0; i < reads; i++ {
				res, err := s.Execute(expr.Statement{Filter: stable}, nil)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if res.Filter.RowsMatched != 800 {
					errs <- fmt.Errorf("reader %d: stable band matched %d, want 800", g, res.Filter.RowsMatched)
					return
				}
				// Lower bound published before the read began; the count
				// may exceed it (concurrent inserts) but never shrink.
				lo := 4 + inserted.Load()
				res, err = s.Execute(expr.Statement{Filter: hot}, nil)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if res.Filter.RowsMatched < lastHot || res.Filter.RowsMatched < lo {
					errs <- fmt.Errorf("reader %d: hot band shrank: matched %d, floor %d, last %d",
						g, res.Filter.RowsMatched, lo, lastHot)
					return
				}
				lastHot = res.Filter.RowsMatched
			}
		}(g)
	}
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		<-start
		for b := 0; b < batches; b++ {
			if err := s.Insert(insertRows(batchRows, 500)); err != nil {
				errs <- fmt.Errorf("insert batch %d: %w", b, err)
				return
			}
			inserted.Add(batchRows)
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		<-start
		for i := 0; i < compactions; i++ {
			if _, err := s.RunCompaction(true); err != nil {
				errs <- fmt.Errorf("compaction %d: %w", i, err)
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

	// Final state is exact once the stream has drained.
	res, err := s.Execute(expr.Statement{Filter: hot}, nil)
	if err != nil || res.Filter.RowsMatched != 4+batches*batchRows {
		t.Fatalf("final hot count %d err %v, want %d", res.Filter.RowsMatched, err, 4+batches*batchRows)
	}
	if _, err := s.RunCompaction(true); err != nil {
		t.Fatal(err)
	}
	res, err = s.Execute(expr.Statement{Filter: hot}, nil)
	if err != nil || res.Filter.RowsMatched != 4+batches*batchRows || res.Filter.DeltaRows != 0 {
		t.Fatalf("post-final-compaction: %+v err %v", res.Filter.Header, err)
	}
	if s.Rows() != 4000+batches*batchRows {
		t.Fatalf("Rows() %d", s.Rows())
	}
	// Disk is consistent and reopenable.
	if _, _, err := blockstore.OpenCurrent(root); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionNeverMutatesLiveLayout runs statements of all four kinds
// against a tree-backed live layout while compactions loop. A compaction
// routes the merged table through the live layout's qd-tree and
// re-freezes it; if that rewrote the live tree's leaf descriptions in
// place (they share their Lo/Hi slices and Masks map with the live
// layout's Descs), the race detector fails this test and, without it,
// queries prune with half-written intervals. The writer only inserts
// x = 600, which no statement below selects, so every answer must equal
// the reference over the base table at every instant.
func TestCompactionNeverMutatesLiveLayout(t *testing.T) {
	tbl := fixtureTable(6000) // x cycles 0..999: every value six times
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A reopened generation has no tree; a forced relayout installs one.
	for _, q := range workloadA() {
		if _, err := s.QuerySQL(q.StringWith(tbl.Schema.Names(), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Relayout(true); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	treeBacked := s.gen.layout.Tree != nil
	s.mu.RUnlock()
	if !treeBacked {
		t.Fatal("forced relayout left the live layout without a qd-tree")
	}

	const (
		filterSQL = "x >= 100 AND x < 300"
		aggSQL    = "SELECT COUNT(*), MIN(x), MAX(x) FROM t WHERE x < 500"
		rowsSQL   = "SELECT x FROM t WHERE x >= 900 ORDER BY x DESC LIMIT 7"
		joinSQL   = "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2"
	)
	p := sqlparse.NewParser(tbl.Schema)
	stmt := func(sql string) expr.Statement {
		st, err := p.ParseStatement(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	wantFilter := cost.PerQueryMatches(tbl, []expr.Query{stmt(filterSQL).Filter}, nil)[0]
	wantAgg := exec.ReferenceAggregate(tbl, *stmt(aggSQL).Agg, nil)
	wantRows := exec.ReferenceSelect(tbl, *stmt(rowsSQL).Row, nil)
	wantJoin := exec.ReferenceJoin(tbl, *stmt(joinSQL).Join, nil)

	checks := []func() error{
		func() error {
			res, err := s.QuerySQL(filterSQL)
			if err == nil && res.RowsMatched != int64(wantFilter) {
				err = fmt.Errorf("filter matched %d, want %d", res.RowsMatched, wantFilter)
			}
			return err
		},
		func() error {
			res, err := s.SelectSQL(aggSQL)
			if err == nil && !reflect.DeepEqual(res.Rows, wantAgg) {
				err = fmt.Errorf("aggregate = %+v, want %+v", res.Rows, wantAgg)
			}
			return err
		},
		func() error {
			res, err := s.SelectRowsSQL(rowsSQL)
			if err == nil && !reflect.DeepEqual(res.Rows, wantRows) {
				err = fmt.Errorf("rows = %v, want %v", res.Rows, wantRows)
			}
			return err
		},
		func() error {
			res, err := s.SelectRowsSQL(joinSQL)
			if err == nil && !reflect.DeepEqual(res.Rows, wantJoin) {
				err = fmt.Errorf("join = %v, want %v", res.Rows, wantJoin)
			}
			return err
		},
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, check := range checks {
		wg.Add(1)
		go func(check func() error) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(); err != nil {
					t.Error(err)
					return
				}
			}
		}(check)
	}
	for i := 0; i < 8 && err == nil; i++ {
		var rep CompactReport
		if err = s.Insert(insertRows(3, 600)); err != nil {
			break
		}
		if rep, err = s.RunCompaction(true); err == nil && rep.Routed != "tree" {
			err = fmt.Errorf("compaction %d routed by %q, want the live qd-tree", i, rep.Routed)
		}
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestInstallFailureKeepsLiveGeneration drives every failure step of the
// shared install sequence: a failed marker write or CURRENT flip leaves
// the live generation serving every row, removes the half-installed
// generation, leaves no compaction marker behind, and lets the next cycle
// succeed once the obstacle is gone. The obstacle is a directory where
// the step writes its temporary file.
func TestInstallFailureKeepsLiveGeneration(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range workloadA() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert(insertRows(5, 500)); err != nil {
		t.Fatal(err)
	}
	probe := bandQuery("probe", 500, 501)
	intact := func(step string) {
		t.Helper()
		if g := s.Generation(); g != 1 {
			t.Fatalf("%s: live generation %d, want 1", step, g)
		}
		if ids, err := blockstore.ListGenerations(root); err != nil || !reflect.DeepEqual(ids, []int{1}) {
			t.Fatalf("%s: generations on disk %v (%v), want just 1", step, ids, err)
		}
		if m, err := delta.ReadMarker(deltaDir(root)); err != nil || m != nil {
			t.Fatalf("%s: marker %+v (%v) left behind", step, m, err)
		}
		res, err := s.Execute(expr.Statement{Filter: probe}, nil)
		if err != nil || res.Filter.RowsMatched != 7 || res.Filter.DeltaRows != 5 {
			t.Fatalf("%s: %+v %v, want 7 matches with the 5 delta rows", step, res.Filter, err)
		}
	}
	block := func(path string) func() {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		return func() { os.RemoveAll(path) }
	}

	for _, tc := range []struct {
		step, obstacle, reason string
		run                    func() (string, error)
	}{
		{"relayout flip", filepath.Join(root, "CURRENT.tmp"), "CURRENT flip failed", func() (string, error) {
			rep, err := s.Relayout(true)
			return rep.Reason, err
		}},
		{"compaction marker", filepath.Join(deltaDir(root), "COMPACTING.json.tmp"), "compaction marker write failed", func() (string, error) {
			rep, err := s.RunCompaction(true)
			return rep.Reason, err
		}},
		{"compaction flip", filepath.Join(root, "CURRENT.tmp"), "CURRENT flip failed", func() (string, error) {
			rep, err := s.RunCompaction(true)
			return rep.Reason, err
		}},
	} {
		unblock := block(tc.obstacle)
		reason, err := tc.run()
		if err == nil || reason != tc.reason {
			t.Fatalf("%s: reason %q err %v, want %q and an error", tc.step, reason, err, tc.reason)
		}
		intact(tc.step)
		unblock()
	}

	rep, err := s.RunCompaction(true)
	if err != nil || !rep.Swapped {
		t.Fatalf("compaction after the failures: %+v %v", rep, err)
	}
	res, err := s.Execute(expr.Statement{Filter: probe}, nil)
	if err != nil || res.Filter.RowsMatched != 7 || res.Filter.DeltaRows != 0 {
		t.Fatalf("after compaction: %+v %v, want 7 matches from the base alone", res.Filter, err)
	}
}
