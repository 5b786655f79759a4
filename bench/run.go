package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// setups is how many times an untraced run sets the stack up; setup_s is
// their median, so one slow set-up does not decide the metric.
const setups = 3

// run executes one workload once and returns its result: the end-to-end
// metrics from an untraced window, or with o.trace the per-layer metrics
// from a short window, a one-client traced pass and the layer probes.
func run(w *workload, o options) (*result, error) {
	if o.trace {
		return runTraced(w, o)
	}
	n := setups
	if o.quick {
		n = 1
	}
	var s *stack
	var setupS []float64
	for k := 0; k < n; k++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = newStack(w, o.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setup.Seconds())
	}
	defer s.close()
	win := runWindow(s, clients, seconds(o.seconds), o.seed, o.results)

	e, err := endToEnd(s, win, o.quick)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: win.attempted(),
		Failed:    win.failed(),
		Metrics: map[string]metric{
			"qps":        {e.qps, "stmt/s"},
			"lat_p50_ms": {e.p50, "ms"},
			"lat_p90_ms": {e.p90, "ms"},
			"setup_s":    {median(setupS), "s"},
		},
	}
	win.reportFailures(os.Stderr)
	res.Correct = res.Failed == 0
	if !o.quick {
		violations := append(shapeViolations(w, layerMetrics(s, win)), latencyMassViolations(e)...)
		res.Correct = reportViolations(w, violations) && res.Correct
	}
	return res, nil
}

// reportViolations names each violated shape assertion and reports
// whether the workload kept its shape.
func reportViolations(w *workload, violations []string) bool {
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "bench: %s: workload shape violated: %s\n", w.name, v)
	}
	return len(violations) == 0
}

// onePassMetrics are the window-derivable metrics that the one-client
// traced pass reports instead: counts that repeat exactly when nothing
// runs beside the statement, and engine timings free of a neighbour's
// interference. The rest — queueing, peaks, sharing, process cost — only
// mean something under the two-client load and stay with the window.
var onePassMetrics = []string{
	"service.degraded_frac", "planner.chose_ij_frac",
	"plan.peak_mb_max", "plan.rows_out_per_stmt",
	"ij.run_ms_mean", "ij.edges_per_stmt", "ij.limit_edge_frac",
	"gh.run_ms_mean", "gh.partition_ms_mean", "gh.bucketjoin_ms_mean",
	"hashjoin.build_ms_per_stmt", "hashjoin.probe_ms_per_stmt",
	"cluster.fetches_per_stmt", "cluster.fetch_mb_per_stmt", "cluster.fetch_busy_ms_per_stmt",
	"cache.hit_frac", "cache.evictions_per_stmt",
	"scratch.spill_mb_per_stmt", "scratch.read_mb_per_stmt", "scratch.files_per_stmt",
}

// runTraced produces the per-layer metrics: a two-client window half as
// long as the untraced one (load-dependent numbers), then one client
// walking the corpus untraced and again traced (exact counts, spans,
// tracing overhead), then the layer probes.
func runTraced(w *workload, o options) (*result, error) {
	s, err := newStack(w, o.seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	win := runWindow(s, clients, seconds(o.seconds)/2, o.seed, o.results)
	m := layerMetrics(s, win)
	violations := shapeViolations(w, m)

	// Size the one-client passes to a fifth of the run for each kind
	// (untraced, traced), in whole corpus passes (at most ten), from the
	// window's mean latency.
	var latSum time.Duration
	for _, ob := range win.obs {
		latSum += ob.lat
	}
	reps := 1
	if len(win.obs) > 0 {
		corpusPass := latSum / time.Duration(len(win.obs)) * time.Duration(len(s.stmts))
		reps = int(seconds(o.seconds) / 5 / corpusPass)
	}
	reps = min(max(reps, 1), 10)
	single, spans, plainLat, tracedLat := onePasses(s, reps, o.results)
	sm := layerMetrics(s, single)
	for _, name := range onePassMetrics {
		m[name] = sm[name]
	}
	spanMetrics(spans, m)
	m["bench.trace_overhead_frac"] = metric{1 - float64(plainLat)/float64(tracedLat), "ratio"}
	if err := runProbes(s, o.seed, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := writeSpans(o.results, w.name, spans); err != nil {
		return nil, err
	}

	res := &result{Metrics: m}
	for _, r := range []*windowResult{win, single} {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		r.reportFailures(os.Stderr)
	}
	res.Correct = res.Failed == 0
	if !o.quick {
		res.Correct = reportViolations(w, violations) && res.Correct
	}
	return res, nil
}

// endToEndMetrics are the numbers a client of the service sees.
type endToEndMetrics struct {
	qps, p50, p90 float64
	epochs        []epoch
}

// epoch is the part of a window between two appends: the dataset, and so
// every statement's cost, is constant inside it. A workload without
// appends has one epoch, the whole window.
type epoch struct {
	per      [][]float64 // per statement: latencies (ms) of its correct completions submitted in the epoch
	p50, p90 float64     // percentiles of the epoch's pooled latencies
}

// endToEnd derives the client-visible metrics from a window: qps is
// correct completions inside the window per window second (the drain
// after the deadline adds latency samples, not throughput).
//
// The latency percentiles are taken per epoch and averaged over the
// epochs. Pooled over a window in which the dataset grows 2.5x, p90 is the
// median of the slowest statement's latencies, which step up at every
// append: it lands on the step between two dataset versions as often as
// inside one, and read 33 or 36 ms from run to run on the same code.
// Inside an epoch the percentile sits in one latency mass, and the mean
// over equally long epochs uses every sample. With one epoch this is the
// pooled percentile.
//
// qps is not a median over slices of the window: sizing runs showed the
// slice median to be the noisier estimate on every workload (a slice of
// gh_spill holds ~35 completions, so it moves in 3 % steps, and
// ingest_mix slows as the dataset grows, so its slices differ by design).
func endToEnd(s *stack, win *windowResult, quick bool) (endToEndMetrics, error) {
	e := endToEndMetrics{epochs: make([]epoch, len(win.commits)+1)}
	for k := range e.epochs {
		e.epochs[k].per = make([][]float64, len(s.stmts))
	}
	inWindow := 0
	for _, o := range win.obs {
		if !o.ok {
			continue
		}
		k := sort.Search(len(win.commits), func(k int) bool { return win.commits[k] > o.begin })
		e.epochs[k].per[o.stmt] = append(e.epochs[k].per[o.stmt], ms(o.lat))
		if o.begin+o.lat <= win.dur {
			inWindow++
		}
	}
	e.qps = float64(inWindow) / win.dur.Seconds()
	pct := percentile
	if quick {
		pct = func(sorted []float64, p float64) (float64, error) { return rankValue(sorted, p), nil }
	}
	for k := range e.epochs {
		ep := &e.epochs[k]
		var lats []float64
		for _, l := range ep.per {
			sort.Float64s(l)
			lats = append(lats, l...)
		}
		sort.Float64s(lats)
		var err error
		if ep.p50, err = pct(lats, 0.50); err != nil {
			return e, fmt.Errorf("epoch %d: %w", k, err)
		}
		if ep.p90, err = pct(lats, 0.90); err != nil {
			return e, fmt.Errorf("epoch %d: %w", k, err)
		}
		e.p50 += ep.p50 / float64(len(e.epochs))
		e.p90 += ep.p90 / float64(len(e.epochs))
	}
	return e, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (win *windowResult) attempted() int {
	return len(win.obs) + len(win.appends) + win.audits
}

func (win *windowResult) failed() int {
	n := len(win.ingestErrs) + win.violated
	for _, o := range win.obs {
		if !o.ok {
			n++
		}
	}
	return n
}

// reportFailures names the first few failures; the count is in the result.
func (win *windowResult) reportFailures(f *os.File) {
	shown := 0
	for _, o := range win.obs {
		if !o.ok && shown < 5 {
			fmt.Fprintf(f, "bench: statement %d failed: %s\n", o.stmt, o.err)
			shown++
		}
	}
	for _, e := range win.ingestErrs {
		fmt.Fprintln(f, "bench: ingest:", e)
	}
	if win.violated > 0 {
		fmt.Fprintf(f, "bench: %d snapshot-isolation violations\n", win.violated)
	}
}

// latencyMassViolations checks that, in every epoch, p50 and p90 each fall
// inside one statement's own latency mass (its 10th–90th percentile range)
// and not in a gap between two statements' masses, where a small shift of
// either neighbour would move the percentile by the width of the gap.
func latencyMassViolations(e endToEndMetrics) []string {
	var out []string
	for k, ep := range e.epochs {
		inside := func(v float64) bool {
			for _, l := range ep.per {
				if len(l) > 0 && rankValue(l, 0.10) <= v && v <= rankValue(l, 0.90) {
					return true
				}
			}
			return false
		}
		if !inside(ep.p50) {
			out = append(out, fmt.Sprintf("epoch %d: p50 %.3f ms lies between two statements' latency masses", k, ep.p50))
		}
		if !inside(ep.p90) {
			out = append(out, fmt.Sprintf("epoch %d: p90 %.3f ms lies between two statements' latency masses", k, ep.p90))
		}
	}
	return out
}
