package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 95, 7},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{1, 2, 3, 4}, 95, 3.85}, // position 0.95*3 = 2.85 → 3*0.15 + 4*0.85
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates on two points
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	// relSpread is the acceptance statistic: (q3-q1)/median.
	if got := relSpread(metricValue{Value: 5.5, Q1: 2.75, Q3: 8.25, N: 10}); !near(got, 1.0) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	msec := time.Millisecond
	if got := selfTime(10*msec, 3*msec, 4*msec); got != 3*msec {
		t.Errorf("selfTime(10, 3, 4) = %v, want 3ms", got)
	}
	if got := selfTime(10 * msec); got != 10*msec {
		t.Errorf("selfTime of a leaf = %v, want its duration", got)
	}
	if got := selfTime(10*msec, 8*msec, 8*msec); got != 0 {
		t.Errorf("children outlasting the parent must leave 0, got %v", got)
	}
}

// One statement's span tree, hand-computed:
//
//	client.query 1000µs ⊃ serve.execute 700 ⊃ {sqlparse.parse 50, exec.run 500 ⊃ {cost.prune 100, blockstore.read 300}}
//
// self: client 300, serve 150, parse 50, exec 100, prune 100, read 300 —
// which telescopes back to the root's 1000.
func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	origin := time.Now()
	r := &recorder{origin: origin, lanes: make([][]span, 2)}
	at := func(us int) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	root := r.add(0, 0, 7, spanClientQuery, classFilter, at(0), at(1000))
	srv := r.add(0, root, 7, spanServeExecute, classFilter, at(1000), at(1700))
	r.add(0, srv, 7, spanParse, classFilter, at(1700), at(1750))
	ex := r.add(0, srv, 7, spanExecRun, classFilter, at(1750), at(2250))
	r.add(0, ex, 7, spanPrune, classFilter, at(2250), at(2350))
	r.add(0, ex, 7, spanRead, classFilter, at(2350), at(2650))
	// A second lane's span must not be mistaken for a child.
	r.add(1, 0, 8, spanClientQuery, classAgg, at(0), at(400))

	ls := selfTimes(r.all())
	want := map[string]float64{
		spanServeExecute: 150, spanParse: 50, spanExecRun: 100, spanPrune: 100, spanRead: 300,
	}
	for name, w := range want {
		if got := ls.self[name]; len(got) != 1 || !near(got[0], w) {
			t.Errorf("self[%s] = %v, want [%v]", name, got, w)
		}
	}
	if got := sum(ls.self[spanClientQuery]); !near(got, 300+400) {
		t.Errorf("client.query self sums to %v, want 700", got)
	}
	var total float64
	for name := range ls.self {
		total += sum(ls.self[name])
	}
	if !near(total, 1000+400) {
		t.Errorf("self times sum to %v, want the roots' 1400", total)
	}
	if got := ls.share(spanRead, spanClientQuery); !near(got, 300.0/1400) {
		t.Errorf("share(blockstore.read) = %v, want %v", got, 300.0/1400)
	}
	ids := map[int]bool{}
	for _, s := range r.all() {
		if ids[s.ID] {
			t.Fatalf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
	qps := metricDef{Name: "query_qps", Unit: "1/s", Better: higher, Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{lat, metricValue{Value: 1.0}, metricValue{Value: 1.05}, verdictOK},
		{lat, metricValue{Value: 1.0}, metricValue{Value: 1.2}, verdictWorse},
		{lat, metricValue{Value: 1.0}, metricValue{Value: 0.5}, verdictOK},
		{qps, metricValue{Value: 1000}, metricValue{Value: 850}, verdictWorse},
		{qps, metricValue{Value: 1000}, metricValue{Value: 1300}, verdictOK},
		// A spread wider than the bound cannot resolve a 20 % change.
		{lat, metricValue{Value: 1.0, Q1: 0.9, Q3: 1.1, N: 5}, metricValue{Value: 1.2, N: 5, Q1: 1.2, Q3: 1.2}, verdictUnresolved},
		{lat, metricValue{Value: 1.0, Q1: 0.99, Q3: 1.01, N: 5}, metricValue{Value: 1.2, Q1: 1.19, Q3: 1.21, N: 5}, verdictWorse},
	}
	for i, c := range cases {
		if got := judge(c.d, c.d.Bound, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge(%s, %v → %v) = %s, want %s", i, c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
