package planner

import (
	"context"
	"sync"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/partition"
)

// samples is the estimator's (alpha, fetch, spill) sample counts.
func samples(e *costmodel.Estimator) [3]int64 {
	c := e.Snapshot()
	return [3]int64{c.AlphaSamples, c.FetchSamples, c.SpillSamples}
}

// TestDecidedRunFeedsEstimatorOnce pins the one feed: the estimator that
// priced a run is fed by that run's Finish, exactly once, on either engine
// and through planner.Run; a run nobody priced feeds nothing.
func TestDecidedRunFeedsEstimatorOnce(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 2), partition.D(2, 2, 4),
		cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20})
	ctx := context.Background()
	for _, force := range []string{"ij", "gh"} {
		p := fastPlanner()
		p.Force = force
		want := func(n int64) [3]int64 {
			if force == "gh" { // only GH spills without a budget
				return [3]int64{n, n, n}
			}
			return [3]int64{n, n, 0}
		}
		var eng engine.Engine
		for n := int64(1); n <= 2; n++ {
			in := resolved(t, cl, req())
			var err error
			if eng, _, err = p.Decide(cl, in); err != nil {
				t.Fatal(err)
			}
			if got := samples(p.Est); got != want(n-1) {
				t.Fatalf("%s: Decide alone moved the samples to %v", force, got)
			}
			if _, err := eng.Run(ctx, cl, in); err != nil {
				t.Fatal(err)
			}
			if got := samples(p.Est); got != want(n) {
				t.Errorf("%s: after decided run %d samples = %v, want %v", force, n, got, want(n))
			}
		}
		if _, _, err := Run(ctx, p, cl, req()); err != nil {
			t.Fatal(err)
		}
		if got := samples(p.Est); got != want(3) {
			t.Errorf("%s: planner.Run fed %v, want %v", force, got, want(3))
		}
		if _, err := engine.RunRequest(ctx, eng, cl, req()); err != nil {
			t.Fatal(err)
		}
		if got := samples(p.Est); got != want(3) {
			t.Errorf("%s: an undecided run fed the estimator: %v", force, got)
		}
	}
}

// TestConcurrentDecidedRunsEachFeedOnce drives the feed from concurrent
// shared runs (the service's shape); run with -race.
func TestConcurrentDecidedRunsEachFeedOnce(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 2), partition.D(2, 2, 4),
		cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20})
	p := fastPlanner()
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req()
			r.Shared = true
			in, err := engine.Resolve(cl.Catalog, r)
			if err != nil {
				t.Error(err)
				return
			}
			eng, _, err := p.Decide(cl, in)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.Run(context.Background(), cl, in); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := samples(p.Est); got[0] != runs {
		t.Errorf("%d concurrent decided runs left %d alpha samples", runs, got[0])
	}
}

// TestLimitEarlyExitFeedsNothing: a statement whose LIMIT stops the join
// mid-run never reaches Finish, so a truncated measurement never reaches
// the estimator; the same statement run to completion does.
func TestLimitEarlyExitFeedsNothing(t *testing.T) {
	// A throttled disk keeps the join from finishing before LIMIT closes it.
	cl := makeCluster(t, partition.D(16, 16, 8), partition.D(4, 4, 2), partition.D(2, 2, 4),
		cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20, DiskReadBw: 1e6})
	ex := NewExecutor(cl)
	ex.Planner = fastPlanner()
	ex.Planner.Force = "ij"
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	out, err := ex.Exec("SELECT * FROM V1 LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.UnitsJoined >= out.Result.UnitsTotal {
		t.Fatalf("no early exit: joined %d of %d edges", out.Result.UnitsJoined, out.Result.UnitsTotal)
	}
	if got := samples(ex.Planner.Est); got != [3]int64{} {
		t.Errorf("early-exited statement fed the estimator: %v", got)
	}
	if _, err := ex.Exec("SELECT COUNT(*) FROM V1 WHERE x < 4"); err != nil {
		t.Fatal(err)
	}
	if got := samples(ex.Planner.Est); got != [3]int64{1, 1, 0} {
		t.Errorf("completed statement samples = %v, want [1 1 0]", got)
	}
}

// TestNoEstimatorIsANoOp: a planner pinned to its static constants decides
// and runs with nothing to feed.
func TestNoEstimatorIsANoOp(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 2), partition.D(2, 2, 4),
		cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20})
	p := fastPlanner()
	p.Est = nil
	in := resolved(t, cl, req())
	eng, dec, err := p.Decide(cl, in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Calibrated || in.PricedBy != nil {
		t.Fatalf("static planner left calibrated=%v PricedBy=%p", dec.Calibrated, in.PricedBy)
	}
	if res, err := eng.Run(context.Background(), cl, in); err != nil || res.Tuples == 0 {
		t.Fatalf("run = %+v, %v", res, err)
	}
}
