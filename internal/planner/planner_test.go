package planner

import (
	"context"
	"testing"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// fastPlanner returns a planner with fixed alphas (no calibration noise).
func fastPlanner() *Planner {
	p := New()
	p.AlphaBuild = 80e-9
	p.AlphaLookup = 40e-9
	return p
}

func makeCluster(t *testing.T, grid, p, q partition.Dims, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: p, RightPart: q,
		StorageNodes: cfg.StorageNodes, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cfg, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func req() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2",
		JoinAttrs: []string{"x", "y", "z"},
	}
}

// resolved is engine.Resolve against cl's catalog, failing the test on error.
func resolved(t *testing.T, cl *cluster.Cluster, r engine.Request) *engine.Inputs {
	t.Helper()
	in, err := engine.Resolve(cl.Catalog, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestParamsFor(t *testing.T) {
	cfg := cluster.Config{
		StorageNodes: 2, ComputeNodes: 3,
		DiskReadBw: 30e6, DiskWriteBw: 25e6, NetBw: 12e6,
		CacheBytes: 8 << 20,
	}
	cl := makeCluster(t, partition.D(16, 16, 8), partition.D(8, 8, 8), partition.D(4, 4, 8), cfg)
	p := fastPlanner()
	params, err := p.ParamsFor(cl, resolved(t, cl, req()))
	if err != nil {
		t.Fatal(err)
	}
	if params.T != 16*16*8 {
		t.Errorf("T = %d", params.T)
	}
	if params.CR != 8*8*8 || params.CS != 4*4*8 {
		t.Errorf("c_R=%d c_S=%d", params.CR, params.CS)
	}
	wantNe := partition.NumEdges(partition.D(16, 16, 8), partition.D(8, 8, 8), partition.D(4, 4, 8))
	if params.Ne != wantNe {
		t.Errorf("n_e = %d, want %d", params.Ne, wantNe)
	}
	if params.RSR != 16 || params.RSS != 16 {
		t.Errorf("record sizes = %d, %d", params.RSR, params.RSS)
	}
	if params.Ns != 2 || params.Nj != 3 {
		t.Errorf("nodes = %d, %d", params.Ns, params.Nj)
	}
	// Net aggregate = min(ns,nj)·NetBw = 2·12e6.
	if params.NetBw != 24e6 {
		t.Errorf("NetBw = %g", params.NetBw)
	}
}

func TestParamsRespectRange(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 8 << 20}
	cl := makeCluster(t, partition.D(16, 16, 8), partition.D(4, 4, 8), partition.D(4, 4, 8), cfg)
	p := fastPlanner()
	r := req()
	r.Filter.Attrs = []string{"x"}
	r.Filter.Lo = []float64{0}
	r.Filter.Hi = []float64{7}
	params, err := p.ParamsFor(cl, resolved(t, cl, r))
	if err != nil {
		t.Fatal(err)
	}
	if params.T != 8*16*8 {
		t.Errorf("ranged T = %d, want %d", params.T, 8*16*8)
	}
}

func TestChooseMatchesModels(t *testing.T) {
	cfg := cluster.Config{
		StorageNodes: 2, ComputeNodes: 2,
		DiskReadBw: 20e6, DiskWriteBw: 20e6, NetBw: 50e6,
		CacheBytes: 32 << 20,
	}
	// Degree-1 graph: IJ should win.
	cl := makeCluster(t, partition.D(16, 16, 8), partition.D(4, 4, 8), partition.D(4, 4, 8), cfg)
	p := fastPlanner()
	eng, dec, err := p.Decide(cl, resolved(t, cl, req()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen != "ij" || eng.Name() != "ij" {
		t.Errorf("chose %s (IJ %v vs GH %v)", dec.Chosen,
			dec.PredictIJ.Total, dec.PredictGH.Total)
	}
	// Extreme connectivity: left split into thin columns, right into large
	// slabs => each right sub-table overlaps 256 lefts, so its records are
	// probed 256 times. IJ's lookup term explodes => GH.
	cl2 := makeCluster(t, partition.D(16, 16, 8), partition.D(1, 1, 8), partition.D(16, 16, 1), cfg)
	eng2, dec2, err := p.Decide(cl2, resolved(t, cl2, req()))
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Chosen != "gh" || eng2.Name() != "gh" {
		t.Errorf("chose %s for high-degree graph (IJ %v vs GH %v)", dec2.Chosen,
			dec2.PredictIJ.Total, dec2.PredictGH.Total)
	}
}

func TestForce(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: 8 << 20}
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), cfg)
	p := fastPlanner()
	p.Force = "gh"
	eng, dec, err := p.Decide(cl, resolved(t, cl, req()))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "gh" || !dec.Forced {
		t.Errorf("force failed: %s forced=%v", eng.Name(), dec.Forced)
	}
	p.Force = "zzz"
	if _, _, err := p.Decide(cl, resolved(t, cl, req())); err == nil {
		t.Error("unknown forced engine accepted")
	}
}

func TestRunExecutes(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20}
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), cfg)
	res, dec, err := Run(context.Background(), fastPlanner(), cl, req())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 8*8*4 {
		t.Errorf("tuples = %d", res.Tuples)
	}
	if dec.Chosen != res.Engine {
		t.Errorf("decision %s but engine ran %s", dec.Chosen, res.Engine)
	}
}

func TestParamsErrors(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: 8 << 20}
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), cfg)
	p := fastPlanner()
	bad := req()
	bad.LeftTable = "nope"
	if _, _, err := Run(context.Background(), p, cl, bad); err == nil {
		t.Error("unknown table accepted")
	}
	// A range that selects no chunks is not an error: there is nothing to
	// price, so the parameters are zero and the models are skipped.
	empty := req()
	empty.Filter.Attrs = []string{"x"}
	empty.Filter.Lo = []float64{1000}
	empty.Filter.Hi = []float64{2000}
	params, err := p.ParamsFor(cl, resolved(t, cl, empty))
	if err != nil {
		t.Fatal(err)
	}
	if params.T != 0 || params.CR != 0 || params.CS != 0 || params.Ne != 0 {
		t.Errorf("empty range params = %+v, want zero tuples and edges", params)
	}
	_, dec, err := p.Decide(cl, resolved(t, cl, empty))
	if err != nil {
		t.Fatal(err)
	}
	if dec.PredictIJ.Total != 0 || dec.PredictGH.Total != 0 {
		t.Errorf("empty range was priced: ij %v gh %v", dec.PredictIJ.Total, dec.PredictGH.Total)
	}
}

func TestCalibrationRunsOnce(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: 8 << 20}
	cl := makeCluster(t, partition.D(4, 4, 2), partition.D(2, 2, 2), partition.D(2, 2, 2), cfg)
	p := New() // no alphas set: must self-calibrate
	if _, err := p.ParamsFor(cl, resolved(t, cl, req())); err != nil {
		t.Fatal(err)
	}
	if p.AlphaBuild <= 0 || p.AlphaLookup <= 0 {
		t.Error("calibration did not run")
	}
	a, b := p.AlphaBuild, p.AlphaLookup
	if _, err := p.ParamsFor(cl, resolved(t, cl, req())); err != nil {
		t.Fatal(err)
	}
	if p.AlphaBuild != a || p.AlphaLookup != b {
		t.Error("calibration re-ran")
	}
}

func TestParamsUseProjectedRecordSizes(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: 8 << 20}
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
		LeftMeasures:  []string{"oilp", "a", "b", "c", "d"},
		RightMeasures: []string{"wp", "e", "f", "g", "h"},
		StorageNodes:  1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cfg, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	p := fastPlanner()
	full, err := p.ParamsFor(cl, resolved(t, cl, req()))
	if err != nil {
		t.Fatal(err)
	}
	if full.RSR != 32 || full.RSS != 32 {
		t.Fatalf("full record sizes = %d, %d", full.RSR, full.RSS)
	}
	narrow := req()
	narrow.Project = []string{"wp"}
	proj, err := p.ParamsFor(cl, resolved(t, cl, narrow))
	if err != nil {
		t.Fatal(err)
	}
	// Left keeps only join keys (12 B); right keeps keys + wp (16 B).
	if proj.RSR != 12 || proj.RSS != 16 {
		t.Errorf("projected record sizes = %d, %d, want 12, 16", proj.RSR, proj.RSS)
	}
}

// TestParamsPriceTheirInputs: the model parameters come from the chunk
// sets the inputs carry, not from a second catalog lookup.
func TestParamsPriceTheirInputs(t *testing.T) {
	cfg := cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 8 << 20}
	cl := makeCluster(t, partition.D(16, 16, 8), partition.D(8, 8, 8), partition.D(4, 4, 8), cfg)
	p := fastPlanner()
	whole, err := p.ParamsFor(cl, resolved(t, cl, req()))
	if err != nil {
		t.Fatal(err)
	}
	in := resolved(t, cl, req())
	// Keep one right sub-table, and halve the rows it claims.
	kept := *in.RightDescs[0]
	kept.Rows /= 2
	in.RightDescs = []*chunk.Desc{&kept}
	got, err := p.ParamsFor(cl, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.CS != whole.CS/2 || got.Ne >= whole.Ne || got.T != whole.T {
		t.Errorf("tampered inputs priced c_S=%d n_e=%d T=%d; untampered c_S=%d n_e=%d T=%d",
			got.CS, got.Ne, got.T, whole.CS, whole.Ne, whole.T)
	}
}
