package costmodel

import (
	"strings"
	"sync"
	"testing"

	"sciview/internal/metrics"
)

// TestCalibrateBounds: the one-shot host calibration must return positive,
// finite, plausibly-sized per-op costs at any requested size (tiny n is
// clamped), and the two sizes must agree within a loose factor — the cost
// of one hash op does not change orders of magnitude with table size.
func TestCalibrateBounds(t *testing.T) {
	for _, n := range []int{0, 1 << 14} {
		b, l := Calibrate(n)
		if !(b > 0) || !(l > 0) {
			t.Fatalf("Calibrate(%d) = %g, %g: want positive", n, b, l)
		}
		if b > 1e-4 || l > 1e-4 {
			t.Fatalf("Calibrate(%d) = %g, %g: over 100µs per op is not plausible", n, b, l)
		}
	}
	b1, _ := Calibrate(1 << 12)
	b2, _ := Calibrate(1 << 15)
	if ratio := b1 / b2; ratio > 100 || ratio < 0.01 {
		t.Errorf("per-op build cost swung %gx between sizes", ratio)
	}
}

func alphaObs(build, lookup float64) Observation {
	return Observation{
		BuildTuples: 1000, BuildSeconds: build * 1000,
		ProbeTuples: 1000, ProbeSeconds: lookup * 1000,
	}
}

// TestEstimatorColdStart: with no observations the estimator must be
// transparent — Apply returns the static Params untouched.
func TestEstimatorColdStart(t *testing.T) {
	e := NewEstimator()
	p := base()
	got, c := e.Apply(p)
	if c.AnyLive() {
		t.Fatalf("cold estimator reports live constants: %+v", c)
	}
	if got != p {
		t.Fatalf("cold Apply changed params: %+v != %+v", got, p)
	}
}

// TestEstimatorFallbackBelowMinSamples: one or two samples seed the
// estimates but must NOT displace the static constants yet.
func TestEstimatorFallbackBelowMinSamples(t *testing.T) {
	e := NewEstimator()
	e.Observe(alphaObs(5e-6, 3e-6))
	c := e.Snapshot()
	if c.AlphaSamples != 1 {
		t.Fatalf("AlphaSamples = %d, want 1", c.AlphaSamples)
	}
	if c.AlphaLive {
		t.Fatal("one sample graduated before MinSamples=3")
	}
	if c.AlphaBuild != 5e-6 {
		t.Fatalf("first sample should seed the value exactly, got %g", c.AlphaBuild)
	}
	p := base()
	got, _ := e.Apply(p)
	if got.AlphaBuild != p.AlphaBuild || got.AlphaLookup != p.AlphaLookup {
		t.Fatal("warming-up signal displaced static alphas")
	}
}

// TestEstimatorGraduation: at MinSamples the live constants take over, and
// Apply rewrites alphas, XferBw (per-stream rate × min(Ns, Nj)) and the
// spill overrides.
func TestEstimatorGraduation(t *testing.T) {
	e := NewEstimator()
	for i := 0; i < minSamples; i++ {
		e.Observe(Observation{
			BuildTuples: 1000, BuildSeconds: 2e-6 * 1000,
			ProbeTuples: 1000, ProbeSeconds: 1e-6 * 1000,
			FetchBytes: 1 << 20, FetchSeconds: 0.5,
			SpillWriteBytes: 1 << 20, SpillWriteSeconds: 0.25,
			SpillReadBytes: 1 << 20, SpillReadSeconds: 0.125,
		})
	}
	c := e.Snapshot()
	if !c.AlphaLive || !c.FetchLive || !c.SpillLive {
		t.Fatalf("all signals should be live at %d samples: %+v", minSamples, c)
	}
	p := base() // Ns=5, Nj=5
	got, _ := e.Apply(p)
	if got.AlphaBuild != 2e-6 || got.AlphaLookup != 1e-6 {
		t.Fatalf("alphas not replaced: %g/%g", got.AlphaBuild, got.AlphaLookup)
	}
	perStream := float64(1<<20) / 0.5
	if want := perStream * 5; got.XferBw != want {
		t.Fatalf("XferBw = %g, want per-stream %g × min(Ns,Nj)=5", got.XferBw, perStream)
	}
	if got.SpillWriteBw != float64(1<<20)/0.25 || got.SpillReadBw != float64(1<<20)/0.125 {
		t.Fatalf("spill overrides not set: %g/%g", got.SpillWriteBw, got.SpillReadBw)
	}
}

// TestEstimatorDecay: the EWMA must move estimates toward new evidence at
// the configured rate and converge (saturate) on a steady signal.
func TestEstimatorDecay(t *testing.T) {
	e := NewEstimator()
	e.Observe(alphaObs(1e-6, 1e-6))
	e.Observe(alphaObs(2e-6, 2e-6))
	c := e.Snapshot()
	want := (1-decay)*1e-6 + decay*2e-6
	if !close(c.AlphaBuild, want) {
		t.Fatalf("second fold = %g, want EWMA %g", c.AlphaBuild, want)
	}
	// Saturation: a long run of identical samples converges to the sample.
	for i := 0; i < 100; i++ {
		e.Observe(alphaObs(8e-6, 8e-6))
	}
	c = e.Snapshot()
	if !close(c.AlphaBuild, 8e-6) || !close(c.AlphaLookup, 8e-6) {
		t.Fatalf("did not converge on steady signal: %g/%g", c.AlphaBuild, c.AlphaLookup)
	}
}

// TestEstimatorRejectsDegenerateSamples: zero-work stages and non-finite
// rates must leave the signals untouched — an IJ run (no spill) never
// dilutes the spill estimates, and a zero-duration timer tick is dropped.
func TestEstimatorRejectsDegenerateSamples(t *testing.T) {
	e := NewEstimator()
	e.Observe(Observation{FetchBytes: 100}) // zero seconds
	e.Observe(Observation{FetchSeconds: 1}) // zero bytes
	e.Observe(Observation{BuildTuples: 10, BuildSeconds: -1})
	c := e.Snapshot()
	if c.FetchSamples != 0 || c.AlphaSamples != 0 || c.SpillSamples != 0 {
		t.Fatalf("degenerate samples were counted: %+v", c)
	}
}

// TestEstimatorMetrics: AttachMetrics exposes the constants gauge family
// and arms the decision counter; a scrape racing Observe/RecordDecision
// must not deadlock (the gauges call back into the estimator).
func TestEstimatorMetrics(t *testing.T) {
	e := NewEstimator()
	reg := metrics.NewRegistry()
	e.AttachMetrics(reg)
	e.RecordDecision("ij", false, true)
	e.RecordDecision("gh", true, false)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			e.Observe(alphaObs(1e-6, 1e-6))
			e.RecordDecision("ij", false, false)
		}
	}()
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.Reset()
		reg.WritePrometheus(&sb)
	}
	wg.Wait()
	sb.Reset()
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`sciview_planner_constant{constant="alpha_build_seconds"}`,
		`sciview_planner_constant{constant="fetch_bw_bytes"}`,
		`sciview_planner_constant{constant="spill_read_bw_bytes"}`,
		`sciview_planner_decisions_total{calibrated="true",chosen="ij",forced="false"}`,
		`sciview_planner_decisions_total{calibrated="false",chosen="gh",forced="true"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %s:\n%s", want, out)
		}
	}
}

// TestEstimatorNilSafety: a nil estimator (planner pinned to the static
// layer) must absorb every call.
func TestEstimatorNilSafety(t *testing.T) {
	var e *Estimator
	e.Observe(alphaObs(1e-6, 1e-6))
	e.RecordDecision("ij", false, false)
	e.AttachMetrics(metrics.NewRegistry())
	if c := e.Snapshot(); c.AnyLive() {
		t.Fatal("nil estimator reported live constants")
	}
}
