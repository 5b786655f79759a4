package sciview

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sciview/internal/metrics"
	"sciview/internal/service"
	"sciview/internal/transport"
)

// TestMetricsScrapeDuringServiceBench is the system-level observability
// stress test: four closed-loop SQL clients run through admission and
// streaming plans on a fully instrumented stack while scrapers hammer
// /metrics. It proves the endpoint serves live cache, breaker, admission,
// per-operator, fetch and transport counters while queries are in flight
// and, under the race detector, that scrape-time reads (GaugeFunc
// callbacks taking the service/cache locks, histogram bucket loads) are
// race-free against the instrumented hot paths. The clients drain — no
// statement is ever cancelled — so the service's own accounting must
// cover every response they saw. The system fetches over the colenc wire,
// so the encoded/decoded byte pair must show a live compression ratio.
func TestMetricsScrapeDuringServiceBench(t *testing.T) {
	ds, err := GenerateOilReservoir(OilReservoirSpec{
		Grid:         Dims{X: 32, Y: 32, Z: 16},
		LeftPart:     Dims{X: 8, Y: 8, Z: 8},
		RightPart:    Dims{X: 8, Y: 8, Z: 8},
		StorageNodes: 2,
		Seed:         2006,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	transport.WireMetrics(reg)
	sys, err := NewSystem(ds, ClusterSpec{ComputeNodes: 2, Wire: "colenc", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	svc := service.New(sys.Cluster(), service.Config{MaxInFlight: 4, Force: "ij", Metrics: reg})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	closer, addr, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var measured atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				if _, err := svc.SubmitSQL(context.Background(), ex, service.SQL{Query: "SELECT * FROM V1 WHERE x < 8 LIMIT 64"}); err != nil {
					t.Error(err)
					return
				}
				measured.Add(1)
			}
		}()
	}
	scrape := func() (string, error) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	// Background scrapers add scrape-vs-update contention beyond the
	// asserting loop below.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				if _, err := scrape(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// The families every layer must surface mid-run. Operator counters
	// appear once the first streaming plan completes; everything else
	// registers at construction.
	want := []string{
		"sciview_cache_hits_total",
		"sciview_cache_misses_total",
		"sciview_cache_bytes",
		"sciview_flight_leads_total",
		"sciview_breaker_state",
		"sciview_queries_total",
		"sciview_queue_depth",
		"sciview_inflight",
		"sciview_mem_used_bytes",
		"sciview_queue_wait_seconds_count",
		"sciview_query_seconds_count",
		"sciview_operator_rows_total",
		"sciview_fetch_total",
		"sciview_fetch_encoded_bytes_total",
		"sciview_fetch_decoded_bytes_total",
		"sciview_transport_frames_total",
	}
	// Keep scraping until every family has shown up and the clients have
	// pushed enough statements through for the scrapers to have overlapped
	// every instrumented path many times.
	const minStatements = 100
	var missing []string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		body, err := scrape()
		if err != nil {
			t.Error(err)
			break
		}
		missing = missing[:0]
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = append(missing, w)
			}
		}
		if len(missing) == 0 && measured.Load() >= minStatements {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("after %d statements, families never scraped mid-run: %v\nlast scrape:\n%s", measured.Load(), missing, body)
			break
		}
	}
	close(stop)
	wg.Wait()

	st := svc.Stats()
	if st.Completed < measured.Load() {
		t.Errorf("stats completed %d < measured %d", st.Completed, measured.Load())
	}
	if st.Dedup.Shared > 0 && st.Dedup.Leads == 0 {
		t.Errorf("dedup counters inconsistent: %+v", st.Dedup)
	}
	enc := reg.Counter("sciview_fetch_encoded_bytes_total", "").Value()
	dec := reg.Counter("sciview_fetch_decoded_bytes_total", "").Value()
	if enc <= 0 || enc >= dec {
		t.Errorf("colenc wire: encoded bytes %d, decoded %d; want 0 < encoded < decoded", enc, dec)
	}
}
