package cost

import (
	"math"

	"repro/internal/expr"
)

// PruneCause is the witness for one SMA pruning decision: the predicate
// that cannot match the block/shard interval. Op mirrors the query
// operator ("<", "<=", ">", ">=", "=", "IN"), or "empty" when the
// interval itself is empty (lo > hi) on a referenced column. Lo/Hi are
// the inclusive interval bounds the predicate was tested against.
//
// The explain logic mirrors mayMatch exactly: a non-nil cause is
// returned if and only if mayMatch would return false, so pruning and
// its explanation can never disagree.
type PruneCause struct {
	Col     int
	Op      string
	Literal int64
	Lo, Hi  int64
}

func opString(op expr.Op) string {
	switch op {
	case expr.Lt:
		return "<"
	case expr.Le:
		return "<="
	case expr.Gt:
		return ">"
	case expr.Ge:
		return ">="
	case expr.Eq:
		return "="
	case expr.In:
		return "IN"
	}
	return "?"
}

// pruneCause walks q like mayMatch and returns the first witness that
// forces a prune, or nil when the query may match. Column c spans the
// inclusive interval [lo[c], hi[c]] over catalog zone maps and
// inclusive(lo[c], hi[c]) over the half-open Desc representation. Only a
// pruned query allocates its witness.
func pruneCause(q expr.Query, lo, hi []int64, halfOpen bool) *PruneCause {
	if q.Root == nil {
		return nil
	}
	if cause, pruned := nodeCause(q.Root, lo, hi, halfOpen); pruned {
		return &cause
	}
	return nil
}

// nodeCause reports whether n prunes the intervals and, if so, its
// witness.
func nodeCause(n *expr.Node, lo, hi []int64, halfOpen bool) (PruneCause, bool) {
	switch n.Kind {
	case expr.KindPred:
		c := n.Pred.Col
		l, h := lo[c], hi[c]
		if halfOpen {
			l, h = inclusive(l, h)
		}
		return predCause(&n.Pred, l, h)
	case expr.KindAnd:
		for _, c := range n.Children {
			if cause, pruned := nodeCause(c, lo, hi, halfOpen); pruned {
				return cause, true
			}
		}
	case expr.KindOr:
		var first PruneCause
		for i, c := range n.Children {
			cause, pruned := nodeCause(c, lo, hi, halfOpen)
			if !pruned {
				return PruneCause{}, false // one disjunct may match
			}
			if i == 0 {
				first = cause
			}
		}
		return first, len(n.Children) > 0
	}
	return PruneCause{}, false // KindAdv conservatively matches, like mayMatch
}

// predCause reports whether p prunes the inclusive interval [l, h] and,
// if so, its witness.
func predCause(p *expr.Pred, l, h int64) (PruneCause, bool) {
	if l > h {
		return PruneCause{Col: p.Col, Op: "empty", Lo: l, Hi: h}, true
	}
	var may bool
	lit := p.Literal
	switch p.Op {
	case expr.Lt:
		may = l < p.Literal
	case expr.Le:
		may = l <= p.Literal
	case expr.Gt:
		may = h > p.Literal
	case expr.Ge:
		may = h >= p.Literal
	case expr.Eq:
		may = p.Literal >= l && p.Literal <= h
	case expr.In:
		for _, v := range p.Set {
			if v >= l && v <= h {
				may = true
				break
			}
		}
		if len(p.Set) > 0 {
			lit = p.Set[0]
		}
	default:
		may = true
	}
	if may {
		return PruneCause{}, false
	}
	return PruneCause{Col: p.Col, Op: opString(p.Op), Literal: lit, Lo: l, Hi: h}, true
}

// SMAPruneCause explains why SMAMayMatch(min, max, q) is false; nil when
// the query may match the inclusive [min, max] zone map.
func SMAPruneCause(min, max []int64, q expr.Query) *PruneCause {
	return pruneCause(q, min, max, false)
}

// MinMaxPruneCause explains why MinMaxMayMatch(lo, hi, q) is false over
// the half-open Desc interval representation; nil when it may match.
func MinMaxPruneCause(lo, hi []int64, q expr.Query) *PruneCause {
	return pruneCause(q, lo, hi, true)
}

// inclusive converts the half-open Desc interval [lo, hi) to an inclusive
// one. An empty interval stays empty (lo > hi), also at hi = MinInt64,
// where hi-1 would wrap: that one reads as (MaxInt64, MinInt64).
func inclusive(lo, hi int64) (int64, int64) {
	if hi == math.MinInt64 {
		return math.MaxInt64, hi
	}
	return lo, hi - 1
}
