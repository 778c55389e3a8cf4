package cost

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestSMAPruneCauseWitnesses pins the explain contract: SMAPruneCause
// returns a witness exactly when SMAMayMatch would prune, and the
// witness names the failing column, operator, and bound.
func TestSMAPruneCauseWitnesses(t *testing.T) {
	// Two-column zone map: col 0 ∈ [100, 200], col 1 ∈ [0, 9].
	min := []int64{100, 0}
	max := []int64{200, 9}

	pred := func(col int, op expr.Op, lit int64) expr.Query {
		return expr.Query{Root: expr.NewPred(expr.Pred{Col: col, Op: op, Literal: lit}), Name: "t"}
	}

	cases := []struct {
		name  string
		q     expr.Query
		prune bool
		op    string
		lit   int64
	}{
		{"lt-hit", pred(0, expr.Lt, 150), false, "", 0},
		{"lt-prune", pred(0, expr.Lt, 100), true, "<", 100},
		{"le-hit", pred(0, expr.Le, 100), false, "", 0},
		{"le-prune", pred(0, expr.Le, 99), true, "<=", 99},
		{"gt-hit", pred(0, expr.Gt, 150), false, "", 0},
		{"gt-prune", pred(0, expr.Gt, 200), true, ">", 200},
		{"ge-hit", pred(0, expr.Ge, 200), false, "", 0},
		{"ge-prune", pred(0, expr.Ge, 201), true, ">=", 201},
		{"eq-hit", pred(0, expr.Eq, 100), false, "", 0},
		{"eq-prune", pred(0, expr.Eq, 99), true, "=", 99},
		{"in-hit", expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.In, Set: []int64{3, 50}})}, false, "", 0},
		{"in-prune", expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.In, Set: []int64{50, 60}})}, true, "IN", 50},
		{"and-one-fails", expr.AndQ("t",
			expr.Pred{Col: 0, Op: expr.Ge, Literal: 150},
			expr.Pred{Col: 1, Op: expr.Gt, Literal: 9}), true, ">", 9},
		{"or-one-matches", expr.Query{Root: expr.Or(
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: 100}),
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 150}))}, false, "", 0},
		{"or-all-fail", expr.Query{Root: expr.Or(
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: 100}),
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 200}))}, true, "<", 100},
		{"adv-conservative", expr.Query{Root: expr.NewAdv(0)}, false, "", 0},
		{"empty-query", expr.Query{}, false, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cause := SMAPruneCause(min, max, tc.q)
			may := SMAMayMatch(min, max, tc.q)
			if (cause != nil) != tc.prune {
				t.Fatalf("cause = %+v, want prune=%v", cause, tc.prune)
			}
			if may == tc.prune {
				t.Fatalf("SMAPruneCause and SMAMayMatch disagree: cause=%+v may=%v", cause, may)
			}
			if cause != nil && (cause.Op != tc.op || cause.Literal != tc.lit) {
				t.Errorf("witness = %+v, want op=%q literal=%d", cause, tc.op, tc.lit)
			}
		})
	}
}

// TestPruneCauseEmptyInterval: an inverted interval (lo > hi) on a
// referenced column is its own witness kind.
func TestPruneCauseEmptyInterval(t *testing.T) {
	q := expr.AndQ("t", expr.Pred{Col: 0, Op: expr.Ge, Literal: 0})
	cause := SMAPruneCause([]int64{5}, []int64{1}, q)
	if cause == nil || cause.Op != "empty" || cause.Lo != 5 || cause.Hi != 1 {
		t.Fatalf("empty-interval witness = %+v", cause)
	}
}

// TestMinMaxPruneCause mirrors MinMaxMayMatch over the half-open Desc
// interval representation.
func TestMinMaxPruneCause(t *testing.T) {
	lo, hi := []int64{100}, []int64{200} // rows hold values in [100, 199]
	q := expr.AndQ("t", expr.Pred{Col: 0, Op: expr.Ge, Literal: 200})
	cause := MinMaxPruneCause(lo, hi, q)
	if cause == nil || cause.Hi != 199 {
		t.Fatalf("witness = %+v, want inclusive hi 199", cause)
	}
	if MinMaxMayMatch(lo, hi, q) {
		t.Fatal("MinMaxMayMatch disagrees with its witness")
	}
	if c := MinMaxPruneCause(lo, hi, expr.AndQ("t", expr.Pred{Col: 0, Op: expr.Ge, Literal: 199})); c != nil {
		t.Fatalf("boundary value should match: %+v", c)
	}
}

// closurePruneCause is the reference witness: a predicate's failure
// built eagerly at every predicate, through an interval callback.
func closurePruneCause(q expr.Query, interval func(c int) (lo, hi int64)) *PruneCause {
	if q.Root == nil {
		return nil
	}
	var rec func(n *expr.Node) *PruneCause
	rec = func(n *expr.Node) *PruneCause {
		switch n.Kind {
		case expr.KindPred:
			p := n.Pred
			l, h := interval(p.Col)
			if l > h {
				return &PruneCause{Col: p.Col, Op: "empty", Lo: l, Hi: h}
			}
			fail := &PruneCause{Col: p.Col, Op: opString(p.Op), Literal: p.Literal, Lo: l, Hi: h}
			if len(p.Set) > 0 {
				fail.Literal = p.Set[0]
			}
			if mayMatch(expr.Query{Root: n}, interval) {
				return nil
			}
			return fail
		case expr.KindAnd:
			for _, c := range n.Children {
				if cause := rec(c); cause != nil {
					return cause
				}
			}
		case expr.KindOr:
			var first *PruneCause
			for _, c := range n.Children {
				cause := rec(c)
				if cause == nil {
					return nil
				}
				if first == nil {
					first = cause
				}
			}
			return first
		}
		return nil
	}
	return rec(q.Root)
}

// TestPruneCauseMatchesReference draws random AND/OR queries with IN
// lists and advanced cuts over random (sometimes empty) intervals and
// checks both witness functions against the reference, and that a
// witness exists exactly when the matching MayMatch prunes.
func TestPruneCauseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lit := func() int64 { return rng.Int63n(40) - 5 }
	var node func(depth int) *expr.Node
	node = func(depth int) *expr.Node {
		switch k := rng.Intn(10); {
		case depth == 0 || k < 5:
			c := rng.Intn(3)
			if rng.Intn(5) == 0 {
				return expr.NewPred(expr.NewIn(c, []int64{lit(), lit()}))
			}
			ops := []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq}
			return expr.NewPred(expr.Pred{Col: c, Op: ops[rng.Intn(len(ops))], Literal: lit()})
		case k < 6:
			return expr.NewAdv(0)
		default:
			kids := make([]*expr.Node, 1+rng.Intn(3))
			for i := range kids {
				kids[i] = node(depth - 1)
			}
			if k < 8 {
				return expr.And(kids...)
			}
			return expr.Or(kids...)
		}
	}
	for i := 0; i < 5000; i++ {
		q := expr.Query{Root: node(3)}
		lo, hi := make([]int64, 3), make([]int64, 3)
		for c := range lo {
			lo[c] = lit()
			hi[c] = lo[c] + rng.Int63n(20) - 2 // sometimes empty
		}
		for _, tc := range []struct {
			name  string
			got   *PruneCause
			may   bool
			hiAdj int64
		}{
			{"SMA", SMAPruneCause(lo, hi, q), SMAMayMatch(lo, hi, q), 0},
			{"MinMax", MinMaxPruneCause(lo, hi, q), MinMaxMayMatch(lo, hi, q), 1},
		} {
			want := closurePruneCause(q, func(c int) (int64, int64) { return lo[c], hi[c] - tc.hiAdj })
			if (tc.got == nil) != (want == nil) || tc.got != nil && *tc.got != *want {
				t.Fatalf("%s %v over %v..%v: witness %+v, want %+v", tc.name, q.String(), lo, hi, tc.got, want)
			}
			if (tc.got != nil) == tc.may {
				t.Fatalf("%s %v over %v..%v: witness %+v but MayMatch %v", tc.name, q.String(), lo, hi, tc.got, tc.may)
			}
		}
	}
}
