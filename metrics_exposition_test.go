package sciview

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"sciview/internal/metrics"
	"sciview/internal/service"
	"sciview/internal/transport"
)

// TestMetricsExpositionGolden pins the /metrics surface of a fully wired
// stack — a System with a registry, the query service, a repair manager,
// an ingestor with a materialized view and the transport counters — to
// every family's HELP line, TYPE line and series label keys. Values are
// not pinned: the golden guards the names, help strings, types and labels
// dashboards and alerts are written against.
func TestMetricsExpositionGolden(t *testing.T) {
	ds, batches, err := GenerateOilReservoirSteps(OilReservoirSpec{
		Grid:         Dims{X: 16, Y: 16, Z: 16},
		LeftPart:     Dims{X: 8, Y: 8, Z: 8},
		RightPart:    Dims{X: 8, Y: 8, Z: 8},
		StorageNodes: 2,
		Replicas:     2,
		Seed:         2006,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	transport.WireMetrics(reg)
	sys, err := NewSystem(ds, ClusterSpec{ComputeNodes: 2, UseTCP: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	svc := service.New(sys.Cluster(), service.Config{MaxInFlight: 2, Metrics: reg})
	defer svc.Close()
	rep, err := sys.Repair(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachRepair(rep)

	if _, err := sys.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec("SELECT COUNT(*) FROM V"); err != nil {
		t.Fatal(err)
	}
	lv, err := sys.MaterializeView("V")
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.Ingestor(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Refresh(); err != nil {
		t.Fatal(err)
	}
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitSQL(context.Background(), ex, service.SQL{Query: "SELECT x, oilp FROM V WHERE x < 8 ORDER BY x LIMIT 10"}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := expositionShape(buf.String())
	want := []string{
		"# HELP sciview_breaker_state Breaker state per storage node (0 closed, 1 open, 2 half-open).",
		"# TYPE sciview_breaker_state gauge",
		"labels sciview_breaker_state node",
		"# HELP sciview_breaker_trips_total Circuit breaker opens per storage node.",
		"# TYPE sciview_breaker_trips_total counter",
		"labels sciview_breaker_trips_total node",
		"# HELP sciview_cache_bytes Bytes resident in the sub-table caches across compute nodes.",
		"# TYPE sciview_cache_bytes gauge",
		"labels sciview_cache_bytes",
		"# HELP sciview_cache_entries Entries resident in the sub-table caches across compute nodes.",
		"# TYPE sciview_cache_entries gauge",
		"labels sciview_cache_entries",
		"# HELP sciview_cache_evictions_total Sub-table cache evictions across compute nodes.",
		"# TYPE sciview_cache_evictions_total counter",
		"labels sciview_cache_evictions_total",
		"# HELP sciview_cache_hits_total Sub-table cache hits across compute nodes.",
		"# TYPE sciview_cache_hits_total counter",
		"labels sciview_cache_hits_total",
		"# HELP sciview_cache_misses_total Sub-table cache misses across compute nodes.",
		"# TYPE sciview_cache_misses_total counter",
		"labels sciview_cache_misses_total",
		"# HELP sciview_failover_total Fetches redirected to a subsequent replica.",
		"# TYPE sciview_failover_total counter",
		"labels sciview_failover_total",
		"# HELP sciview_fetch_decoded_bytes_total Row-major payload bytes the same fetches decode to; the ratio to encoded bytes is the live wire compression factor.",
		"# TYPE sciview_fetch_decoded_bytes_total counter",
		"labels sciview_fetch_decoded_bytes_total",
		"# HELP sciview_fetch_encoded_bytes_total Bytes of sub-table fetches as they traveled the wire (compressed when the colenc codec is negotiated).",
		"# TYPE sciview_fetch_encoded_bytes_total counter",
		"labels sciview_fetch_encoded_bytes_total",
		"# HELP sciview_fetch_failures_total Fetches that failed after consulting every replica.",
		"# TYPE sciview_fetch_failures_total counter",
		"labels sciview_fetch_failures_total",
		"# HELP sciview_fetch_total Sub-table fetches served to compute nodes.",
		"# TYPE sciview_fetch_total counter",
		"labels sciview_fetch_total",
		"# HELP sciview_flight_leads_total Singleflight loads actually executed.",
		"# TYPE sciview_flight_leads_total counter",
		"labels sciview_flight_leads_total",
		"# HELP sciview_flight_shared_total Singleflight callers served by another caller's load.",
		"# TYPE sciview_flight_shared_total counter",
		"labels sciview_flight_shared_total",
		"# HELP sciview_inflight Queries currently executing.",
		"# TYPE sciview_inflight gauge",
		"labels sciview_inflight",
		"# HELP sciview_ingest_appends_total Committed append batches.",
		"# TYPE sciview_ingest_appends_total counter",
		"labels sciview_ingest_appends_total",
		"# HELP sciview_ingest_chunks_total Chunks registered by append batches.",
		"# TYPE sciview_ingest_chunks_total counter",
		"labels sciview_ingest_chunks_total",
		"# HELP sciview_ingest_refreshes_total Materialized view refreshes by mode.",
		"# TYPE sciview_ingest_refreshes_total counter",
		"labels sciview_ingest_refreshes_total mode",
		"# HELP sciview_ingest_version Current catalog version.",
		"# TYPE sciview_ingest_version gauge",
		"labels sciview_ingest_version",
		"# HELP sciview_mem_used_bytes Working-set estimate bytes charged by in-flight queries.",
		"# TYPE sciview_mem_used_bytes gauge",
		"labels sciview_mem_used_bytes",
		"# HELP sciview_node_state Storage node lifecycle (0 up, 1 down, 2 rejoining).",
		"# TYPE sciview_node_state gauge",
		"labels sciview_node_state node",
		"# HELP sciview_node_versions_behind Catalog versions a storage node has not absorbed.",
		"# TYPE sciview_node_versions_behind gauge",
		"labels sciview_node_versions_behind node",
		"# HELP sciview_operator_busy_microseconds_total Busy time per operator kind, in microseconds.",
		"# TYPE sciview_operator_busy_microseconds_total counter",
		"labels sciview_operator_busy_microseconds_total op",
		"# HELP sciview_operator_bytes_total Bytes emitted per operator kind.",
		"# TYPE sciview_operator_bytes_total counter",
		"labels sciview_operator_bytes_total op",
		"# HELP sciview_operator_rows_total Rows emitted per operator kind.",
		"# TYPE sciview_operator_rows_total counter",
		"labels sciview_operator_rows_total op",
		"# HELP sciview_planner_constant Current cost-model constants of the online calibration layer.",
		"# TYPE sciview_planner_constant gauge",
		"labels sciview_planner_constant constant",
		"# HELP sciview_planner_decisions_total Planner engine decisions by choice, override and constant provenance.",
		"# TYPE sciview_planner_decisions_total counter",
		"labels sciview_planner_decisions_total calibrated,chosen,forced",
		"# HELP sciview_queries_total Query submissions by outcome.",
		"# TYPE sciview_queries_total counter",
		"labels sciview_queries_total outcome",
		"# HELP sciview_query_seconds End-to-end execution latency of admitted queries.",
		"# TYPE sciview_query_seconds histogram",
		"labels sciview_query_seconds",
		"# HELP sciview_queue_depth Queries waiting for admission.",
		"# TYPE sciview_queue_depth gauge",
		"labels sciview_queue_depth",
		"# HELP sciview_queue_wait_seconds Admission queue wait of admitted queries.",
		"# TYPE sciview_queue_wait_seconds histogram",
		"labels sciview_queue_wait_seconds",
		"# HELP sciview_repair_already_placed_total Placement commits that found the catalog already converged.",
		"# TYPE sciview_repair_already_placed_total counter",
		"labels sciview_repair_already_placed_total",
		"# HELP sciview_repair_bytes_total Payload bytes moved by repair.",
		"# TYPE sciview_repair_bytes_total counter",
		"labels sciview_repair_bytes_total",
		"# HELP sciview_repair_catchups_total Completed catch-up replays (node rejoins).",
		"# TYPE sciview_repair_catchups_total counter",
		"labels sciview_repair_catchups_total",
		"# HELP sciview_repair_chunks_total Chunk placements laid by repair.",
		"# TYPE sciview_repair_chunks_total counter",
		"labels sciview_repair_chunks_total",
		"# HELP sciview_repair_errors_total Failed repair copy or rebuild attempts.",
		"# TYPE sciview_repair_errors_total counter",
		"labels sciview_repair_errors_total",
		"# HELP sciview_repair_rebuilds_total Node-local objects rebuilt from surviving replicas.",
		"# TYPE sciview_repair_rebuilds_total counter",
		"labels sciview_repair_rebuilds_total",
		"# HELP sciview_repair_sweeps_total Completed anti-entropy sweeps.",
		"# TYPE sciview_repair_sweeps_total counter",
		"labels sciview_repair_sweeps_total",
		"# HELP sciview_retry_total Backoff re-attempts against the same replica.",
		"# TYPE sciview_retry_total counter",
		"labels sciview_retry_total",
		"# HELP sciview_transport_bytes_total Wire bytes (headers included) by direction.",
		"# TYPE sciview_transport_bytes_total counter",
		"labels sciview_transport_bytes_total dir",
		"# HELP sciview_transport_frames_total Wire frames by direction.",
		"# TYPE sciview_transport_frames_total counter",
		"labels sciview_transport_frames_total dir",
		"# HELP sciview_underreplicated_chunks Chunks below the replication factor on available nodes, as of the last sweep.",
		"# TYPE sciview_underreplicated_chunks gauge",
		"labels sciview_underreplicated_chunks",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("exposition shape changed:\ngot:\n%s\n\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// expositionShape reduces a Prometheus text exposition to its families'
// HELP and TYPE lines, each followed by a "labels <family> <keys>" line
// listing the label keys its series carry (a histogram's "le" excluded).
func expositionShape(text string) []string {
	var out []string
	var family, typ string
	keys := map[string]bool{}
	flush := func() {
		if family == "" {
			return
		}
		var ks []string
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out = append(out, strings.TrimSpace("labels "+family+" "+strings.Join(ks, ",")))
		keys = map[string]bool{}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			flush()
			family = strings.Fields(line)[2]
			out = append(out, line)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typ = strings.Fields(line)[3]
			out = append(out, line)
			continue
		}
		open := strings.IndexByte(line, '{')
		if open < 0 {
			continue
		}
		for _, pair := range strings.Split(line[open+1:strings.LastIndexByte(line, '}')], ",") {
			k, _, _ := strings.Cut(pair, "=")
			if typ == "histogram" && k == "le" {
				continue
			}
			keys[k] = true
		}
	}
	flush()
	return out
}
