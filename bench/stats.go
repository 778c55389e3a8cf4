package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks (the "inclusive" method: p=0 is
// the minimum, p=100 the maximum). xs is not modified. An empty sample
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := math.Floor(pos)
	hi := math.Ceil(pos)
	if lo == hi {
		return s[int(lo)]
	}
	frac := pos - lo
	return s[int(lo)]*(1-frac) + s[int(hi)]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method, positions
// (n+1)/4 and 3(n+1)/4 counted from 1, clamped to the sample) — the
// spread the benchmark's acceptance rule is stated in. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based, fractional
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// selfTime is a span's duration minus the part its child spans cover.
// Children here are replays of the same statement through inner entry
// points, so coverage is by duration; children that together outlast
// the parent (a replay that ran slower than the original) cover all of
// it and leave a self time of zero, never a negative one.
func selfTime(parent time.Duration, children ...time.Duration) time.Duration {
	var covered time.Duration
	for _, c := range children {
		covered += c
	}
	if covered >= parent {
		return 0
	}
	return parent - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a metric a workload does not
// exercise reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
