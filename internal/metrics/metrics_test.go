package metrics

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must stay zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fetches_total", "Total fetches.")
	c.Inc()
	c.Add(2)
	c.Add(-7) // ignored: counters only go up
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if again := r.Counter("fetches_total", ""); again != c {
		t.Error("re-registration must return the same instrument")
	}

	g := r.Gauge("inflight", "")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}

	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hist sum = %g, want %g", got, want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sciview_cache_hits_total", "Cache hits.").Add(7)
	r.Gauge("sciview_breaker_state", "Breaker state.", "node", "1").Set(2)
	r.GaugeFunc("sciview_queue_depth", "Waiting queries.", func() float64 { return 4 })
	h := r.Histogram("sciview_query_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sciview_cache_hits_total Cache hits.",
		"# TYPE sciview_cache_hits_total counter",
		"sciview_cache_hits_total 7",
		`sciview_breaker_state{node="1"} 2`,
		"sciview_queue_depth 4",
		"# TYPE sciview_query_seconds histogram",
		`sciview_query_seconds_bucket{le="0.5"} 1`,
		`sciview_query_seconds_bucket{le="1"} 2`,
		`sciview_query_seconds_bucket{le="+Inf"} 3`,
		"sciview_query_seconds_sum 3.9",
		"sciview_query_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsAreOrderIndependent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "a", "1", "b", "2")
	b := r.Counter("x_total", "", "b", "2", "a", "1")
	if a != b {
		t.Error("label order must not split a series")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Gauge("a", "").Set(1)
	h := r.Histogram("c_seconds", "", nil)
	h.Observe(2)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	if snap[0].Name != "a" || snap[1].Name != "b_total" || snap[2].Name != "c_seconds" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if !snap[2].IsHist || snap[2].Value != 1 || snap[2].Sum != 2 {
		t.Fatalf("histogram sample: %+v", snap[2])
	}
}

// TestConcurrentObserveAndScrape exercises the lock-free hot path against
// concurrent scrapes (run under -race in check.sh).
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-4)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 20000 || h.Count() != 20000 {
		t.Fatalf("lost updates: counter %d, hist %d", c.Value(), h.Count())
	}
}

func TestServeEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	closer, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("metrics endpoint body:\n%s", body)
	}
	// pprof index must answer too.
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
}

// Benchmarks backing the "no-op path costs near zero" claim: a nil
// counter is one predicted branch; a live one is one atomic add.
func BenchmarkCounterNoop(b *testing.B) {
	var r *Registry
	c := r.Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterLive(b *testing.B) {
	c := NewRegistry().Counter("x_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramLive(b *testing.B) {
	h := NewRegistry().Histogram("x_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 1e-3)
	}
}

// TestCounterFunc: a sampled counter is exposed under the counter type,
// read at every scrape and snapshot, and re-registration swaps its
// callback; it never shares a series with a push-style counter.
func TestCounterFunc(t *testing.T) {
	var nilReg *Registry
	nilReg.CounterFunc("x_total", "", func() float64 { return 1 }) // no-op

	r := NewRegistry()
	var n float64 = 4
	r.CounterFunc("hits_total", "Hits kept elsewhere.", func() float64 { return n }, "node", "0")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP hits_total Hits kept elsewhere.\n# TYPE hits_total counter\nhits_total{node=\"0\"} 4\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	n = 9
	if s := r.Snapshot(); len(s) != 1 || s[0].Value != 9 {
		t.Errorf("snapshot = %+v, want one sample reading 9", s)
	}
	r.CounterFunc("hits_total", "", func() float64 { return 11 }, "node", "0")
	if s := r.Snapshot(); s[0].Value != 11 {
		t.Errorf("re-registered callback not used: %+v", s)
	}

	defer func() {
		if recover() == nil {
			t.Error("a func over a plain counter's series must panic")
		}
	}()
	r.Counter("plain_total", "").Inc()
	r.CounterFunc("plain_total", "", func() float64 { return 0 })
}
