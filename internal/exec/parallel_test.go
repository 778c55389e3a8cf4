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
	{Parallelism: 4},
	{Parallelism: 0}, // GOMAXPROCS
}

// TestWorkloadParallelEquivalence: every query of the workload reports
// ScanStats bit-identical to Parallelism 1 for every profile, mode, and
// Options value; the parallel SimTime never exceeds the single stream.
func TestWorkloadParallelEquivalence(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	for _, prof := range eqProfiles {
		for _, mode := range eqModes {
			seq, err := runSequential(st, layout, spec.Queries, spec.ACs, prof, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range eqOptions {
				for i, q := range spec.Queries {
					got, err := RunDelta(st, layout, q, spec.ACs, prof, mode, opt, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := seq[i]
					if got.ScanStats != want.ScanStats {
						t.Errorf("%s/%d/%+v %s: stats %+v, sequential %+v",
							prof.Name, mode, opt, want.Query, got.ScanStats, want.ScanStats)
					}
					if got.SimTime > want.SimTime || (opt.Parallelism == 1 && got.SimTime != want.SimTime) {
						t.Errorf("%s/%d/%+v %s: SimTime %v, sequential %v",
							prof.Name, mode, opt, want.Query, got.SimTime, want.SimTime)
					}
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
	opt := Options{Parallelism: 4}
	for _, q := range spec.Queries {
		first, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again.SimTime != first.SimTime {
				t.Fatalf("%s run %d: SimTime %v, first %v", q.Name, i, again.SimTime, first.SimTime)
			}
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

// TestConcurrentScanStress scans one store from many goroutines at once —
// the race-detector target for the shared block-reader and the pool.
func TestConcurrentScanStress(t *testing.T) {
	st, layout, spec := fixture(t)
	defer st.Close()
	exact, err := runSequential(st, layout, spec.Queries, spec.ACs, EngineDBMS, RouteQdTree)
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
