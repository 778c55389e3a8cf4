package exec

import (
	"sync"
	"testing"
	"time"
)

// profiles and option sets exercised by the equivalence tests.
var eqProfiles = []Profile{EngineSpark, EngineDBMS}
var eqModes = []Mode{RouteQdTree, NoRoute}
var eqOptions = []Options{
	{Parallelism: 1},
	{Parallelism: 1, ShareReads: true},
	{Parallelism: 4},
	{Parallelism: 4, ShareReads: true},
	{Parallelism: 0}, // GOMAXPROCS
}

// TestWorkloadParallelEquivalence: per-query ScanStats and SimTime from the
// batched parallel engine must be bit-identical to sequential execution for
// every profile, mode, and Options value.
func TestWorkloadParallelEquivalence(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	for _, prof := range eqProfiles {
		for _, mode := range eqModes {
			seq, seqTotal, err := runSequential(st, layout, spec.Queries, spec.ACs, prof, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range eqOptions {
				wr, err := RunWorkloadDelta(st, layout, spec.Queries, spec.ACs, prof, mode, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(wr.Results) != len(seq) {
					t.Fatalf("%s/%d/%+v: %d results, want %d", prof.Name, mode, opt, len(wr.Results), len(seq))
				}
				for i := range seq {
					got, want := wr.Results[i], seq[i]
					if got.ScanStats != want.ScanStats {
						t.Errorf("%s/%d/%+v %s: stats %+v, sequential %+v",
							prof.Name, mode, opt, want.Query, got.ScanStats, want.ScanStats)
					}
					if got.SimTime != want.SimTime {
						t.Errorf("%s/%d/%+v %s: SimTime %v, sequential %v",
							prof.Name, mode, opt, want.Query, got.SimTime, want.SimTime)
					}
				}
				if wr.TotalSimTime != seqTotal {
					t.Errorf("%s/%d/%+v: TotalSimTime %v, sequential %v", prof.Name, mode, opt, wr.TotalSimTime, seqTotal)
				}
				// The parallel estimate never exceeds the single stream.
				if wr.SimTime > wr.TotalSimTime {
					t.Errorf("%s/%d/%+v: parallel SimTime %v > sequential %v", prof.Name, mode, opt, wr.SimTime, wr.TotalSimTime)
				}
			}
		}
	}
}

// TestRunOptsEquivalence: the single-query pool path reports the same
// counters as the sequential path at any parallelism.
func TestRunOptsEquivalence(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	for _, q := range spec.Queries {
		seq, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4, 8} {
			par, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if par.ScanStats != seq.ScanStats {
				t.Errorf("%s p=%d: stats %+v, sequential %+v", q.Name, p, par.ScanStats, seq.ScanStats)
			}
			if par.SimTime > seq.SimTime {
				t.Errorf("%s p=%d: parallel SimTime %v exceeds sequential %v", q.Name, p, par.SimTime, seq.SimTime)
			}
		}
	}
}

// TestParallelSimTimeDeterministic: repeated parallel runs must report the
// same simulated time bit-for-bit — the model is a function of the block
// set, never of goroutine scheduling.
func TestParallelSimTimeDeterministic(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	opt := Options{Parallelism: 4, ShareReads: true}
	first, err := RunWorkloadDelta(st, layout, spec.Queries, spec.ACs, EngineSpark, RouteQdTree, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := RunWorkloadDelta(st, layout, spec.Queries, spec.ACs, EngineSpark, RouteQdTree, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again.SimTime != first.SimTime || again.TotalSimTime != first.TotalSimTime {
			t.Fatalf("run %d: SimTime %v/%v, first %v/%v",
				i, again.SimTime, again.TotalSimTime, first.SimTime, first.TotalSimTime)
		}
	}
}

// TestParallelSimTimeModel checks the documented critical-path reduction:
// max(total/N, max block cost).
func TestParallelSimTimeModel(t *testing.T) {
	cases := []struct {
		total, crit time.Duration
		workers     int
		want        time.Duration
	}{
		{100, 10, 1, 100},
		{100, 10, 4, 25},
		{100, 60, 4, 60}, // one dominant block bounds the makespan
		{100, 10, 100, 10},
		{0, 0, 8, 0},
	}
	for _, c := range cases {
		if got := parallelSimTime(c.total, c.crit, c.workers); got != c.want {
			t.Errorf("parallelSimTime(%v, %v, %d) = %v, want %v", c.total, c.crit, c.workers, got, c.want)
		}
	}
}

// TestSharedReadsReadOnceFilterMany: with ShareReads a block is read once
// no matter how many queries scan it.
func TestSharedReadsReadOnceFilterMany(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	wr, err := RunWorkloadDelta(st, layout, spec.Queries, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 2, ShareReads: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	var logicalReads int
	for _, q := range spec.Queries {
		cands, err := candidateBlocks(st, layout, q, RouteQdTree, nil)
		if err != nil {
			t.Fatal(err)
		}
		logicalReads += len(cands)
		for _, b := range cands {
			distinct[b] = true
		}
	}
	if wr.PhysicalReads != len(distinct) {
		t.Errorf("physical reads %d, distinct candidate blocks %d", wr.PhysicalReads, len(distinct))
	}
	if logicalReads > len(distinct) && wr.PhysicalReads >= logicalReads {
		t.Errorf("shared reads saved nothing: %d physical vs %d logical", wr.PhysicalReads, logicalReads)
	}
}

// TestConcurrentScanStress scans one store from many goroutines at once —
// the race-detector target for the shared block-reader and the pool.
func TestConcurrentScanStress(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	exact, _, err := runSequential(st, layout, spec.Queries, spec.ACs, EngineDBMS, RouteQdTree)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := spec.Queries[(g+i)%len(spec.Queries)]
				res, err := RunDelta(st, layout, q, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 4}, nil)
				if err != nil {
					errs <- err
					return
				}
				if res.ScanStats != exact[(g+i)%len(spec.Queries)].ScanStats {
					t.Errorf("goroutine %d: stats diverged under concurrency", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
