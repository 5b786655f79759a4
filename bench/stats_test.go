package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	xs := seq(200)
	if got, err := percentile(xs, 0.50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
	if got, err := percentile(xs, 0.95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	// 199 samples leave 9 beyond p95 (rank 190): refused.
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(seq(19), 0.50); err == nil {
		t.Error("p50 of 19 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Error("p100 accepted")
	}
	if got := rankValue(seq(10), 0.95); got != 10 {
		t.Errorf("rankValue p95 of 1..10 = %v, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if math.Abs(q1-0.5) > 1e-12 || math.Abs(q3-3.5) > 1e-12 {
		t.Errorf("quartiles(3,1) = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{[]float64{100, 100, 101}, true, 0.10, "same"},
		{[]float64{85, 86, 84}, true, 0.10, "worse"},
		{[]float64{85, 86, 84}, false, 0.10, "better"},
		{[]float64{120, 121, 119}, true, 0.10, "better"},
		{[]float64{120, 121, 119}, false, 0.10, "worse"},
		{[]float64{100, 100, 101}, true, 0.01, "unresolved"}, // parent IQR 2 > 1 % of 100
		{[]float64{90, 91, 89}, true, 0, "worse"},            // no bound: the parent's spread decides
	}
	for _, c := range cases {
		if got := verdict(parent, c.change, c.higher, c.bound); got != c.want {
			t.Errorf("verdict(%v, higher=%v, bound=%v) = %s, want %s", c.change, c.higher, c.bound, got, c.want)
		}
	}
}

func TestAccountSelfTimes(t *testing.T) {
	ts := traceStmt{
		root:   span{Name: spanStmt, StartNs: 0, DurNs: 100},
		parse:  span{Name: spanParse, StartNs: 0, DurNs: 2},
		lower:  span{Name: spanLower, StartNs: 2, DurNs: 8},
		submit: span{Name: spanSubmit, StartNs: 10, DurNs: 80},
		check:  span{Name: spanCheck, StartNs: 90, DurNs: 5},
		queue:  &span{Name: spanQueue, StartNs: 19, DurNs: 1},
		run:    &span{Name: spanRun, StartNs: 20, DurNs: 70},
		// Recorded join-first to check the chain is ordered by kind.
		ops: []span{{Name: "plan.join", DurNs: 40}, {Name: "plan.limit", DurNs: 66}, {Name: "plan.sort", DurNs: 65}},
		// Two concurrent engine events: they keep their durations.
		engine: []span{{Name: "cluster.fetch", StartNs: 20, DurNs: 30}, {Name: "hashjoin.build", StartNs: 40, DurNs: 30}},
	}
	got := map[string]span{}
	byID := map[int]string{}
	spans := ts.account(7, 100)
	for _, sp := range spans {
		got[sp.Name] = sp
		byID[sp.ID] = sp.Name
	}
	wantSelf := map[string]int64{spanStmt: 5, spanParse: 2, spanLower: 8, spanSubmit: 9, spanQueue: 1, spanRun: 4,
		"plan.limit": 1, "plan.sort": 25, "plan.join": 40, "cluster.fetch": 30, "hashjoin.build": 30, spanCheck: 5}
	wantParent := map[string]string{spanParse: spanStmt, spanLower: spanStmt, spanSubmit: spanStmt, spanCheck: spanStmt,
		spanQueue: spanSubmit, spanRun: spanSubmit, "plan.limit": spanRun, "plan.sort": "plan.limit",
		"plan.join": "plan.sort", "cluster.fetch": "plan.join", "hashjoin.build": "plan.join"}
	for name, self := range wantSelf {
		if got[name].SelfNs != self {
			t.Errorf("%s self = %d, want %d", name, got[name].SelfNs, self)
		}
		if got[name].Stmt != 7 || got[name].ID <= 100 {
			t.Errorf("%s: statement %d id %d, want statement 7 and an id above 100", name, got[name].Stmt, got[name].ID)
		}
	}
	for name, parent := range wantParent {
		if byID[got[name].Parent] != parent {
			t.Errorf("%s parent = %q, want %q", name, byID[got[name].Parent], parent)
		}
	}

	// The shares are of the statement's 100 ns wall: the service's own
	// lowering (sized by the 8 ns replica) moves from submit to frontend,
	// and the join's 40 ns go to fetch and build, 20 each.
	m := map[string]metric{}
	spanMetrics(spans, m)
	wantFrac := map[string]float64{"frontend": 0.18, "service": 0.02, "plan": 0.26, "fetch": 0.20,
		"hashjoin": 0.20, "ship": 0, "scratch": 0, "check": 0.05}
	for group, want := range wantFrac {
		if got := m["trace."+group+"_self_frac"].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("trace.%s_self_frac = %v, want %v", group, got, want)
		}
	}
	if got := m["bench.account_closure_frac"].Value; math.Abs(got-0.91) > 1e-9 {
		t.Errorf("closure = %v, want 0.91", got)
	}
	if got := m["plan.join_self_ms"].Value; math.Abs(got-40e-6) > 1e-12 {
		t.Errorf("plan.join_self_ms = %v, want 40 ns", got)
	}
}

// A window split by one append: the statement costs 10 ms before it and
// 30 ms after. The pooled median would read 10 or 30 depending on which
// epoch holds one sample more; the per-epoch mean reads 20 either way.
func TestEndToEndAveragesEpochs(t *testing.T) {
	s := &stack{stmts: make([]*statement, 1)}
	win := &windowResult{dur: 20 * time.Second, commits: []time.Duration{10 * time.Second}}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		lat := 10 * time.Millisecond
		if at >= win.commits[0] {
			lat = 30 * time.Millisecond
		}
		win.obs = append(win.obs, obs{begin: at, lat: lat, returned: true, ok: true})
	}
	win.obs = append(win.obs, obs{begin: time.Second, lat: 10 * time.Millisecond, returned: true, ok: true})
	e, err := endToEnd(s, win, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.p50 != 20 || e.p90 != 20 || len(e.epochs) != 2 {
		t.Errorf("p50 %v, p90 %v over %d epochs; want 20, 20 over 2", e.p50, e.p90, len(e.epochs))
	}
	if e.qps != 201.0/20 {
		t.Errorf("qps %v; want %v", e.qps, 201.0/20)
	}
	if v := latencyMassViolations(e); len(v) != 0 {
		t.Errorf("violations %v on a window whose percentiles sit on their statement's mass", v)
	}
}
