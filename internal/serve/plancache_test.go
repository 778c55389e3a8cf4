package serve

import (
	"fmt"
	"testing"
)

// TestPlanCacheCanonicalKey: whitespace/case variants of one statement
// are one plan — the first spelling misses and parses, every other
// spelling resolves to the same cached statement as a hit.
func TestPlanCacheCanonicalKey(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := "SELECT x FROM t WHERE x >= 100 AND x < 110 ORDER BY x DESC LIMIT 5"
	b := "select   x from t where x>=100 and x<110 order by x desc limit 5"
	sa, err := s.ParseStatement(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := s.ParseStatement(b)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 1 {
		t.Fatalf("two spellings of one statement: misses=%d hits=%d, want 1/1", st.PlanCacheMisses, st.PlanCacheHits)
	}
	if sa.Row == nil || sb.Row == nil || sa.Row != sb.Row {
		t.Fatalf("both spellings must share one cached plan: %p vs %p", sa.Row, sb.Row)
	}

	// The raw spellings are aliased, so repeating either is a map hit.
	for _, sql := range []string{a, b, a} {
		if _, err := s.ParseStatement(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st = s.Stats(); st.PlanCacheMisses != 1 || st.PlanCacheHits != 4 {
		t.Fatalf("repeats: misses=%d hits=%d, want 1/4", st.PlanCacheMisses, st.PlanCacheHits)
	}

	// Distinct statements still miss independently and stay bounded.
	for i := 0; i < planCacheCapacity+16; i++ {
		sql := fmt.Sprintf("SELECT x FROM t WHERE x < %d LIMIT 1", i+1)
		if _, err := s.ParseStatement(sql); err != nil {
			t.Fatal(err)
		}
	}
	s.plans.mu.Lock()
	n := len(s.plans.m)
	s.plans.mu.Unlock()
	if n > planCacheCapacity {
		t.Fatalf("cache grew past capacity: %d > %d", n, planCacheCapacity)
	}
}
