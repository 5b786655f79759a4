package costmodel

import (
	"fmt"
	"math"
	"sync"

	"sciview/internal/metrics"
)

// Estimator layers the cost model's constants:
//
//   - the static configuration layer is whatever Params the planner
//     derives from the catalog and the configured simio rates (Table 1),
//     exactly as before;
//   - the live calibration layer folds per-run measurements — effective
//     fetch bandwidth, per-operation CPU cost (α_build/α_lookup), and GH
//     scratch spill throughput — into exponentially-decayed running
//     estimates, and substitutes them into Params once a signal has
//     accrued minSamples observations.
//
// Until a signal graduates, decisions fall back to the static constants,
// so a cold planner behaves exactly like the pre-calibration one. Every
// fold is cheap (a handful of float ops under one mutex), safe for the
// service's concurrent submitters, and scrapeable: AttachMetrics exposes
// the current constants as gauges and every decision as a labeled
// counter.
type Estimator struct {
	mu         sync.Mutex
	alphaBuild signal
	alphaLook  signal
	fetchBw    signal
	spillWrBw  signal
	spillRdBw  signal

	reg *metrics.Registry
}

// The calibration layer's two constants: an observation moves an estimate
// a quarter of the way (a few queries converge, one outlier does not
// whipsaw the planner), and three samples are required before a live
// constant displaces a configured one.
const (
	decay      = 0.25
	minSamples = 3
)

// signal is one exponentially-decayed running estimate.
type signal struct {
	value float64
	n     int64
}

func (s *signal) fold(obs float64) {
	if !(obs > 0) || math.IsInf(obs, 0) || math.IsNaN(obs) {
		return
	}
	s.n++
	if s.n == 1 {
		s.value = obs
		return
	}
	s.value = (1-decay)*s.value + decay*obs
}

// NewEstimator returns an estimator with no samples yet.
func NewEstimator() *Estimator { return &Estimator{} }

// Observation is one run's measured resource costs (engine.Observed is
// this type): how many bytes actually moved storage→compute and how long
// the wire was busy, how many hash build/probe operations ran and their
// wall-clock cost, and the scratch spill traffic. Seconds are summed
// per-stream busy time: with n concurrent fetchers a run accumulates n×
// wall time, so Bytes/Seconds is the *per-stream* effective rate, which
// is what the models' aggregate terms scale up by node count. All fields
// are zero for runs that skipped the stage.
type Observation struct {
	// FetchBytes/FetchSeconds cover storage→compute transfers: decoded
	// payload bytes against wire-busy seconds (disk read + transport), so
	// compression shows up as higher effective bandwidth.
	FetchBytes   int64
	FetchSeconds float64
	// BuildTuples/ProbeTuples count hash operations (one per row);
	// Seconds span the kernel plus the modeled-CPU charge, so the derived
	// α constants track the emulated processor, not just the host.
	BuildTuples  int64
	BuildSeconds float64
	ProbeTuples  int64
	ProbeSeconds float64
	// Spill{Write,Read} cover scratch traffic per joiner: GH's buckets and
	// any over-budget pair's build partitions.
	SpillWriteBytes   int64
	SpillWriteSeconds float64
	SpillReadBytes    int64
	SpillReadSeconds  float64
}

// Observe folds one run's measurements into the calibration layer.
// Stages the run skipped (zero bytes or tuples) leave their signals
// untouched, so e.g. an IJ run never dilutes the spill estimates.
func (e *Estimator) Observe(o Observation) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if o.BuildTuples > 0 && o.BuildSeconds > 0 {
		e.alphaBuild.fold(o.BuildSeconds / float64(o.BuildTuples))
	}
	if o.ProbeTuples > 0 && o.ProbeSeconds > 0 {
		e.alphaLook.fold(o.ProbeSeconds / float64(o.ProbeTuples))
	}
	if o.FetchBytes > 0 && o.FetchSeconds > 0 {
		e.fetchBw.fold(float64(o.FetchBytes) / o.FetchSeconds)
	}
	if o.SpillWriteBytes > 0 && o.SpillWriteSeconds > 0 {
		e.spillWrBw.fold(float64(o.SpillWriteBytes) / o.SpillWriteSeconds)
	}
	if o.SpillReadBytes > 0 && o.SpillReadSeconds > 0 {
		e.spillRdBw.fold(float64(o.SpillReadBytes) / o.SpillReadSeconds)
	}
}

// Constants is a snapshot of the calibration layer: the current running
// estimates, their sample counts, and whether each signal has graduated
// past minSamples (Live) and therefore displaces its static counterpart in
// Apply.
type Constants struct {
	// AlphaBuild and AlphaLookup are seconds per hash operation.
	AlphaBuild  float64
	AlphaLookup float64
	// FetchBw is the per-stream effective storage→compute bandwidth in
	// bytes/second; SpillWriteBw/SpillReadBw are per-joiner scratch rates.
	FetchBw      float64
	SpillWriteBw float64
	SpillReadBw  float64

	AlphaSamples int64 // min(build, lookup) sample counts
	FetchSamples int64
	SpillSamples int64 // min(write, read) sample counts

	AlphaLive bool
	FetchLive bool
	SpillLive bool
}

// AnyLive reports whether at least one calibrated constant is in use.
func (c Constants) AnyLive() bool { return c.AlphaLive || c.FetchLive || c.SpillLive }

// String renders the snapshot for EXPLAIN and CLI provenance lines.
func (c Constants) String() string {
	mark := func(live bool) string {
		if live {
			return "live"
		}
		return "static"
	}
	return fmt.Sprintf("αb=%.3gs αl=%.3gs (%s, n=%d) fetch=%.3gB/s (%s, n=%d) spill=%.3g/%.3gB/s (%s, n=%d)",
		c.AlphaBuild, c.AlphaLookup, mark(c.AlphaLive), c.AlphaSamples,
		c.FetchBw, mark(c.FetchLive), c.FetchSamples,
		c.SpillWriteBw, c.SpillReadBw, mark(c.SpillLive), c.SpillSamples)
}

// Snapshot returns the calibration layer's current state.
func (e *Estimator) Snapshot() Constants {
	if e == nil {
		return Constants{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := Constants{
		AlphaBuild:   e.alphaBuild.value,
		AlphaLookup:  e.alphaLook.value,
		FetchBw:      e.fetchBw.value,
		SpillWriteBw: e.spillWrBw.value,
		SpillReadBw:  e.spillRdBw.value,
		AlphaSamples: minI64(e.alphaBuild.n, e.alphaLook.n),
		FetchSamples: e.fetchBw.n,
		SpillSamples: minI64(e.spillWrBw.n, e.spillRdBw.n),
	}
	c.AlphaLive = c.AlphaSamples >= minSamples
	c.FetchLive = c.FetchSamples >= minSamples
	c.SpillLive = c.SpillSamples >= minSamples
	return c
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Apply substitutes the graduated live constants into a statically
// derived Params and returns the snapshot it used, so callers can record
// provenance. Signals still warming up leave the static values in place:
//
//   - live α constants replace AlphaBuild/AlphaLookup outright (the
//     measurements span the modeled-CPU charge, so the static
//     CPUSecPerOp augmentation is already included in them);
//   - the live fetch rate sets XferBw to per-stream × min(n_s, n_j),
//     the same aggregation the static min(Net_bw, readIO_bw·n_s) term
//     models;
//   - live spill rates set the SpillWriteBw/SpillReadBw overrides, which
//     the GH terms prefer without perturbing the transfer term.
func (e *Estimator) Apply(p Params) (Params, Constants) {
	c := e.Snapshot()
	if c.AlphaLive {
		p.AlphaBuild = c.AlphaBuild
		p.AlphaLookup = c.AlphaLookup
	}
	if c.FetchLive {
		streams := p.Ns
		if p.Nj < streams {
			streams = p.Nj
		}
		if streams < 1 {
			streams = 1
		}
		p.XferBw = c.FetchBw * float64(streams)
	}
	if c.SpillLive {
		p.SpillWriteBw = c.SpillWriteBw
		p.SpillReadBw = c.SpillReadBw
	}
	return p, c
}

// AttachMetrics exposes the calibration layer on a live registry: a
// gauge family sciview_planner_constant{constant=...} holding the
// current estimates plus per-signal sample counts, and arms the
// sciview_planner_decisions_total counter family RecordDecision
// increments. A nil registry keeps everything a no-op.
func (e *Estimator) AttachMetrics(reg *metrics.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mu.Lock()
	e.reg = reg
	e.mu.Unlock()
	gauges := []struct {
		name string
		fn   func(Constants) float64
	}{
		{"alpha_build_seconds", func(c Constants) float64 { return c.AlphaBuild }},
		{"alpha_lookup_seconds", func(c Constants) float64 { return c.AlphaLookup }},
		{"fetch_bw_bytes", func(c Constants) float64 { return c.FetchBw }},
		{"spill_write_bw_bytes", func(c Constants) float64 { return c.SpillWriteBw }},
		{"spill_read_bw_bytes", func(c Constants) float64 { return c.SpillReadBw }},
		{"alpha_samples", func(c Constants) float64 { return float64(c.AlphaSamples) }},
		{"fetch_samples", func(c Constants) float64 { return float64(c.FetchSamples) }},
		{"spill_samples", func(c Constants) float64 { return float64(c.SpillSamples) }},
	}
	for _, g := range gauges {
		fn := g.fn
		reg.GaugeFunc("sciview_planner_constant",
			"Current cost-model constants of the online calibration layer.",
			func() float64 { return fn(e.Snapshot()) },
			"constant", g.name)
	}
}

// RecordDecision counts one planner decision in
// sciview_planner_decisions_total{chosen,forced,calibrated}. No-op until
// AttachMetrics arms a registry.
func (e *Estimator) RecordDecision(chosen string, forced, calibrated bool) {
	if e == nil {
		return
	}
	// Never call into the registry under e.mu: a concurrent scrape holds
	// the registry lock while sampling our gauge funcs, which take e.mu.
	e.mu.Lock()
	reg := e.reg
	e.mu.Unlock()
	// A nil registry returns a no-op counter, so this is safe unattached.
	reg.Counter("sciview_planner_decisions_total",
		"Planner engine decisions by choice, override and constant provenance.",
		"chosen", chosen, "forced", boolLabel(forced), "calibrated", boolLabel(calibrated)).Inc()
}

func boolLabel(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
