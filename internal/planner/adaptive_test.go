package planner

import (
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// TestCalibrationMovesConstantsAndFlipsDecision is the tentpole's feedback
// proof: when the configured constants disagree with what the hardware
// actually delivers, observed runs must pull the calibrated constants
// toward the measured simio-throttled rates and flip the planner's engine
// choice.
//
// Setup: the static CPU constants are grossly pessimistic (100µs/op —
// wrong by three orders of magnitude versus the native kernel), so the
// static model dreads IJ's per-edge lookup volume (ne·cS > 2·T here) and
// picks GH. The measured truth is that CPU is nearly free while GH's
// scratch spill pays a real (simio-throttled) disk penalty, so IJ is
// faster. After a few observed runs the calibration layer must have
// learned both facts and switched the decision to IJ.
func TestCalibrationMovesConstantsAndFlipsDecision(t *testing.T) {
	const spillBw = 2e6 // scratch writes throttled to 2 MB/s
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20,
		DiskReadBw: 4e6, DiskWriteBw: spillBw,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 1e-4
	ex.Planner.AlphaLookup = 1e-4
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	v, _ := ex.View("V1")
	req, err := v.Request(nil, false)
	if err != nil {
		t.Fatal(err)
	}

	_, before, err := ex.Planner.Decide(cl, resolved(t, cl, req))
	if err != nil {
		t.Fatal(err)
	}
	if before.Calibrated {
		t.Fatalf("cold planner claims calibrated constants: %+v", before.Constants)
	}
	if before.Chosen != "gh" {
		t.Fatalf("static decision = %s, the pessimistic alphas should make it dread IJ's %d lookups",
			before.Chosen, before.Params.Ne*before.Params.CS)
	}

	// Each observed run folds alpha, fetch and (while GH keeps winning)
	// spill measurements; three runs graduate every signal.
	for i := 0; i < 4; i++ {
		if _, err := ex.Exec("SELECT COUNT(*) FROM V1"); err != nil {
			t.Fatal(err)
		}
	}

	_, after, err := ex.Planner.Decide(cl, resolved(t, cl, req))
	if err != nil {
		t.Fatal(err)
	}
	if !after.Calibrated {
		t.Fatalf("no calibrated constants after 4 observed runs: %+v", after.Constants)
	}
	if after.Chosen != "ij" {
		t.Fatalf("calibrated decision = %s, want the flip to ij (constants %s)",
			after.Chosen, after.Constants)
	}
	c := after.Constants
	if !c.AlphaLive || c.AlphaBuild >= 1e-5 {
		t.Errorf("calibrated α_build = %g (live=%v), should have collapsed toward the native ns-scale cost",
			c.AlphaBuild, c.AlphaLive)
	}
	// The spill estimate must track the throttled scratch disk, not the
	// configured-elsewhere or unthrottled rate. Wide tolerance: the simio
	// sleep is exact but host-side work rides on top of it.
	if !c.SpillLive {
		t.Fatalf("spill signal never graduated: %s", c)
	}
	if c.SpillWriteBw < spillBw/5 || c.SpillWriteBw > spillBw*3 {
		t.Errorf("calibrated spill write bw = %.0f B/s, want near the %.0f B/s simio throttle",
			c.SpillWriteBw, spillBw)
	}
}
