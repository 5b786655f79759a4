// Package metrics is a dependency-free metrics registry for the live
// observability surface: counters, gauges and bounded-bucket histograms
// with Prometheus-text-format exposition. The paper's evaluation hinges on
// knowing where time goes (fetch vs. join vs. network); this package makes
// those same quantities continuously scrapeable from a running service
// instead of only reportable after a benchmark run.
//
// Hot-path discipline: every instrument is a pointer whose methods are
// nil-safe no-ops, so an uninstrumented component (nil *Registry anywhere
// in the chain) pays one predicted branch per event and allocates nothing.
// Real instruments update via atomics — no locks on the observation path;
// the registry mutex is touched only at registration and scrape time.
//
// A count a component already keeps is never kept twice: CounterFunc and
// GaugeFunc sample it at scrape time. Push-style instruments are for
// quantities nothing else counts.
//
//	reg := metrics.NewRegistry()
//	fetches := reg.Counter("sciview_fetch_total", "Sub-table fetches.")
//	fetches.Inc()                   // atomic add
//	reg.CounterFunc("sciview_cache_hits_total", "Sub-table cache hits.",
//		func() float64 { return float64(cache.Stats().Hits) })
//	var off *metrics.Registry       // nil registry: everything below no-ops
//	off.Counter("x", "").Inc()      // safe, free
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is usable;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default latency histogram bounds, in seconds:
// 100µs .. ~100s, exponential ×~3. Bounded cardinality by construction.
var DefBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// Histogram counts observations into fixed buckets (cumulative counts are
// computed at scrape time, so Observe touches exactly one bucket counter).
// A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric is anything a family can expose.
type metric interface {
	writeSeries(w *bufio.Writer, name, labels string)
}

func (c *Counter) writeSeries(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
}

func (g *Gauge) writeSeries(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.Value())
}

// sampled reads a callback at scrape time: the cheapest way to expose
// state another component already tracks (queue depth, cache hits,
// breaker state) without adding anything to its hot path. A GaugeFunc and
// a CounterFunc differ only in the family type they are registered under.
type sampled struct {
	fn func() float64
}

func (s *sampled) writeSeries(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(s.fn()))
}

func (h *Histogram) writeSeries(w *bufio.Writer, name, labels string) {
	// Cumulative bucket counts in the Prometheus shape:
	// name_bucket{le="b"} n ... name_bucket{le="+Inf"} total.
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	series          map[string]metric // keyed by rendered label string
	order           []string          // label strings in registration order
}

// Registry holds registered instruments and renders them in Prometheus
// text format. A nil *Registry hands out nil (no-op) instruments from
// every constructor, so callers thread one handle and never branch
// themselves. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// get returns the family, creating it with help/typ on first use, and the
// existing series for the label set (nil if absent).
func (r *Registry) get(name, help, typ, labels string) (*family, metric) {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f, f.series[labels]
}

func (f *family) add(labels string, m metric) {
	f.series[labels] = m
	f.order = append(f.order, labels)
}

// Counter registers (or returns the existing) counter under name with
// optional label key/value pairs. A nil registry returns a nil (no-op)
// counter.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, m := r.get(name, help, "counter", labels)
	if m != nil {
		return m.(*Counter)
	}
	c := &Counter{}
	f.add(labels, c)
	return c
}

// Gauge registers (or returns the existing) gauge. A nil registry returns
// a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, m := r.get(name, help, "gauge", labels)
	if m != nil {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.add(labels, g)
	return g
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time. fn
// must be safe for concurrent use. Re-registering the same name+labels
// replaces the callback. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.sampledFunc(name, help, "gauge", fn, labelPairs)
}

// CounterFunc registers a counter sampled by calling fn at scrape time:
// the counter twin of GaugeFunc, for a count another component already
// keeps. fn must be safe for concurrent use and must never return less
// than it did before. Re-registering the same name+labels replaces the
// callback. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.sampledFunc(name, help, "counter", fn, labelPairs)
}

func (r *Registry) sampledFunc(name, help, typ string, fn func() float64, labelPairs []string) {
	if r == nil {
		return
	}
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, m := r.get(name, help, typ, labels)
	if m != nil {
		if s, ok := m.(*sampled); ok {
			s.fn = fn
			return
		}
		panic(fmt.Sprintf("metrics: %s%s registered as a plain %s, requested as a func", name, labels, typ))
	}
	f.add(labels, &sampled{fn: fn})
}

// Histogram registers (or returns the existing) histogram with the given
// upper bounds (nil = DefBuckets). A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, m := r.get(name, help, "histogram", labels)
	if m != nil {
		return m.(*Histogram)
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	f.add(labels, h)
	return h
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format, families sorted by name, series in registration
// order. Safe to call while instruments are being updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, labels := range f.order {
			f.series[labels].writeSeries(bw, f.name, labels)
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

// Sample is one series' value in a Snapshot.
type Sample struct {
	Name   string // metric name with rendered labels, e.g. `x_total{node="0"}`
	Value  float64
	IsHist bool // histograms report Value = observation count
	Sum    float64
}

// Snapshot returns every plain series' current value (histograms report
// their count and sum), sorted by name. Used by benchmark reports to dump
// the registry without an HTTP round trip.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Sample
	for _, f := range r.families {
		for _, labels := range f.order {
			s := Sample{Name: f.name + labels}
			switch m := f.series[labels].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = float64(m.Value())
			case *sampled:
				s.Value = m.fn()
			case *Histogram:
				s.Value = float64(m.Count())
				s.Sum = m.Sum()
				s.IsHist = true
			}
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// renderLabels turns key/value pairs into a deterministic `{k="v",...}`
// string (empty for none). Keys are sorted so registration order cannot
// split one logical series in two.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label pairs %v", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel inserts one more label into an already-rendered label string
// (histogram buckets add `le` to the series labels).
func mergeLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
