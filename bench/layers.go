package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

const mb = 1e6 // "mb" in metric names is 10^6 bytes, "mbps" 10^6 bytes/second

// opKind is the operator kind of an OpStat description such as
// "Sort(wp DESC)" or "Join[ij](T1 ⋈ T2 ON x,y,z)": its leading letters,
// lower-cased.
func opKind(op string) string {
	end := strings.IndexFunc(op, func(r rune) bool { return r < 'A' || (r > 'Z' && r < 'a') || r > 'z' })
	if end < 0 {
		end = len(op)
	}
	return strings.ToLower(op[:end])
}

var planKinds = []string{"scan", "join", "filter", "project", "aggregate", "sort", "limit"}

// layerMetrics derives the per-layer numbers a window supports from
// outside the layers: the values every response already carries
// (QueueWait, Decision, Result.{Operators,Observed,Phases,Units*}) and
// deltas of the cumulative counters snapshotted around the window.
// Metrics that need spans (plan.*_self_ms among them: table scans return
// no Result, so only operator events cover every statement) or a probe
// are added by the traced pass.
func layerMetrics(s *stack, win *windowResult) map[string]metric {
	m := map[string]metric{}
	n := 0 // statements that returned
	var (
		queue, ijRun, ghRun, ghPart, ghBucket time.Duration
		degraded, joined, ij, gh, limited     int
		predErr                               []float64
		edges, limitFrac                      float64
		buildS, probeS, fetchS                float64
		rows, peak, spillParts                int64
		lats                                  []float64
	)
	for _, o := range win.obs {
		if !o.returned {
			continue
		}
		n++
		lats = append(lats, ms(o.lat))
		queue += o.queue
		rows += int64(o.rows)
		if o.degraded {
			degraded++
		}
		r := o.res
		if r == nil {
			continue // table scan: no join ran, the response carries no Result
		}
		joined++
		if o.predicted > 0 && r.UnitsJoined == r.UnitsTotal {
			predErr = append(predErr, math.Abs(o.predicted-r.Elapsed.Seconds())/r.Elapsed.Seconds())
		}
		switch r.Engine {
		case "ij":
			ij++
			ijRun += r.Elapsed
			edges += float64(r.UnitsJoined)
			if s.stmts[o.stmt].sel.Limit >= 0 && r.UnitsTotal > 0 {
				limited++
				limitFrac += float64(r.UnitsJoined) / float64(r.UnitsTotal)
			}
		case "gh":
			gh++
			ghRun += r.Elapsed
			ghPart += r.Phases["partition"]
			ghBucket += r.Phases["bucketjoin"]
		}
		buildS += r.Observed.BuildSeconds
		probeS += r.Observed.ProbeSeconds
		fetchS += r.Observed.FetchSeconds
		for _, op := range r.Operators {
			if op.PeakBytes > peak {
				peak = op.PeakBytes
			}
			spillParts += op.SpillParts
		}
	}
	per := func(total float64, count int) float64 {
		if count == 0 {
			return 0
		}
		return total / float64(count)
	}
	b, a := win.before, win.after

	m["service.queue_wait_ms_mean"] = metric{per(ms(queue), n), "ms"}
	m["service.inflight_peak"] = metric{float64(a.svc.InFlightPeak), "count"}
	m["service.degraded_frac"] = metric{per(float64(degraded), n), "ratio"}
	sort.Float64s(lats)
	m["service.lat_p99_ms"] = metric{rankValue(lats, 0.99), "ms"}

	m["planner.chose_ij_frac"] = metric{per(float64(ij), joined), "ratio"}
	m["planner.predict_err_frac"] = metric{median(predErr), "ratio"}
	m["metadata.chunks_end"] = metric{float64(a.chunks), "count"}

	m["plan.peak_mb_max"] = metric{float64(peak) / mb, "MB"}
	m["plan.rows_out_per_stmt"] = metric{per(float64(rows), n), "count"}

	m["ij.run_ms_mean"] = metric{per(ms(ijRun), ij), "ms"}
	m["ij.edges_per_stmt"] = metric{per(edges, ij), "count"}
	m["ij.limit_edge_frac"] = metric{per(limitFrac, limited), "ratio"}
	m["gh.run_ms_mean"] = metric{per(ms(ghRun), gh), "ms"}
	m["gh.partition_ms_mean"] = metric{per(ms(ghPart), gh), "ms"}
	m["gh.bucketjoin_ms_mean"] = metric{per(ms(ghBucket), gh), "ms"}

	m["hashjoin.build_ms_per_stmt"] = metric{per(buildS*1e3, n), "ms"}
	m["hashjoin.probe_ms_per_stmt"] = metric{per(probeS*1e3, n), "ms"}

	leads := a.svc.Dedup.Leads - b.svc.Dedup.Leads
	shared := a.svc.Dedup.Shared - b.svc.Dedup.Shared
	m["cluster.fetches_per_stmt"] = metric{per(float64(leads), n), "count"}
	m["cluster.fetch_mb_per_stmt"] = metric{per(float64(a.traffic.NetBytesToCompute-b.traffic.NetBytesToCompute)/mb, n), "MB"}
	m["cluster.dedup_shared_frac"] = metric{per(float64(shared), int(leads+shared)), "ratio"}
	m["cluster.fetch_busy_ms_per_stmt"] = metric{per(fetchS*1e3, n), "ms"}

	hits := a.cache.Hits - b.cache.Hits
	misses := a.cache.Misses - b.cache.Misses
	m["cache.hit_frac"] = metric{per(float64(hits), int(hits+misses)), "ratio"}
	m["cache.evictions_per_stmt"] = metric{per(float64(a.cache.Evictions-b.cache.Evictions), n), "count"}

	m["simio.disk_busy_ms_per_stmt"] = metric{per(ms(a.diskBusy-b.diskBusy), n), "ms"}
	m["simio.net_busy_ms_per_stmt"] = metric{per(ms(a.netBusy-b.netBusy), n), "ms"}

	m["scratch.spill_mb_per_stmt"] = metric{per(float64(a.traffic.ScratchBytesWritten-b.traffic.ScratchBytesWritten)/mb, n), "MB"}
	m["scratch.read_mb_per_stmt"] = metric{per(float64(a.traffic.ScratchBytesRead-b.traffic.ScratchBytesRead)/mb, n), "MB"}
	m["scratch.files_per_stmt"] = metric{per(float64(spillParts), n), "count"}

	var commits []float64
	for _, d := range win.appends {
		commits = append(commits, ms(d))
	}
	m["ingest.commit_ms_p50"] = metric{median(commits), "ms"}
	m["ingest.appends"] = metric{float64(len(win.appends) - len(win.ingestErrs)), "count"}
	m["ingest.snapshot_violations"] = metric{float64(win.violated), "count"}

	m["process.cpu_ms_per_stmt"] = metric{per(ms(a.cpu-b.cpu), n), "ms"}
	m["process.alloc_mb_per_stmt"] = metric{per(float64(a.allocBytes-b.allocBytes)/mb, n), "MB"}
	m["process.gc_per_stmt"] = metric{per(float64(a.gcs-b.gcs), n), "count"}
	m["process.peak_rss_mb"] = metric{peakRSSMiB() * (1 << 20) / mb, "MB"}
	m["process.goroutines_leaked"] = metric{float64(a.goroutines - b.goroutines), "count"}

	m["bench.fail_frac"] = metric{per(float64(win.failed()), win.attempted()), "ratio"}
	m["bench.samples"] = metric{float64(n), "count"}
	return m
}

// shapeViolations checks that a workload still exercises what it was
// built to exercise; a benchmark whose cold workload has quietly become
// warm measures nothing, so a violation fails the run.
func shapeViolations(w *workload, m map[string]metric) []string {
	var out []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	v := func(name string) float64 { return m[name].Value }
	if w.name != "gh_spill" {
		for _, name := range []string{"scratch.spill_mb_per_stmt", "scratch.read_mb_per_stmt", "scratch.files_per_stmt"} {
			want(v(name) == 0, "%s = %g outside gh_spill", name, v(name))
		}
	}
	if w.name != "cold_fetch" {
		for _, name := range []string{"simio.disk_busy_ms_per_stmt", "simio.net_busy_ms_per_stmt"} {
			want(v(name) == 0, "%s = %g outside cold_fetch", name, v(name))
		}
	}
	switch w.name {
	case "warm_join":
		want(v("cache.hit_frac") > 0.95, "cache.hit_frac = %g, want > 0.95 (working set must fit)", v("cache.hit_frac"))
	case "cold_fetch":
		want(v("cache.hit_frac") < 0.8, "cache.hit_frac = %g, want < 0.8 (cache must thrash)", v("cache.hit_frac"))
		want(v("simio.net_busy_ms_per_stmt") > 0, "throttles idle on cold_fetch")
	case "gh_spill":
		want(v("service.degraded_frac") > 0.5, "service.degraded_frac = %g, want > 0.5", v("service.degraded_frac"))
		want(v("scratch.spill_mb_per_stmt") > 0, "nothing spilled on gh_spill")
		want(v("planner.chose_ij_frac") == 0, "planner.chose_ij_frac = %g on the forced-GH workload", v("planner.chose_ij_frac"))
	case "ingest_mix":
		want(v("ingest.appends") == float64(w.ingestSteps), "ingest.appends = %g, want %d", v("ingest.appends"), w.ingestSteps)
	}
	want(v("ingest.snapshot_violations") == 0, "ingest.snapshot_violations = %g", v("ingest.snapshot_violations"))
	return out
}
