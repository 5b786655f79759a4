package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/leakcheck"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// benchShape is the benchmark's dataset (bench/workloads.go): 64 T1 and
// 256 T2 chunks over four storage nodes.
var benchShape = oilres.Config{
	Grid:         partition.D(64, 64, 32),
	LeftPart:     partition.D(16, 16, 8),
	RightPart:    partition.D(8, 8, 8),
	StorageNodes: 4,
	Seed:         7,
}

const benchView = "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"

// TestCancelSQLMidJoin cancels a streaming join statement from the client
// side while its joiners are running, on the benchmark's dataset shape
// (64x64x32, two compute nodes, prefetch 2): the submission must return
// context.Canceled promptly and hand back its slot, its admission weight
// and every goroutine. The blocking sort above the join drains the head
// part only, so once the other joiner is maxBufferedBatches ahead it is
// parked in the sink — the state a cancel used to deadlock in. The early
// cancel point covers the joiners still being inside their first fetches.
func TestCancelSQLMidJoin(t *testing.T) {
	ds, err := oilres.Generate(benchShape)
	if err != nil {
		t.Fatal(err)
	}
	// The disk is slow enough (~1 s for the full join) that a cancel after
	// a fifth of the 320 sub-table fetches always lands mid-join.
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 4, ComputeNodes: 2, CacheBytes: 64 << 20, DiskReadBw: 2e6,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Closed on the passing path only: Close waits for in-flight
	// statements, so after a hang it would turn the failure into a stuck job.
	svc := newService(cl, Config{MaxInFlight: 2, Force: "ij", Prefetch: 2})
	ex := svc.Executor()
	if _, err := ex.Exec(benchView); err != nil {
		t.Fatal(err)
	}

	for _, served := range []int64{1, 64} {
		check := leakcheck.Check(t)
		base := bdsFetches(cl)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := svc.SubmitSQL(ctx, ex, SQL{Query: "SELECT * FROM V1 ORDER BY wp DESC"})
			done <- err
		}()
		for bdsFetches(cl)-base < served {
			select {
			case err := <-done:
				t.Fatalf("statement ended before %d sub-tables were served: %v", served, err)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel after %d sub-tables: err = %v, want context.Canceled", served, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cancel after %d sub-tables: SubmitSQL still blocked 10s later", served)
		}
		requireIdle(t, svc)
		check()
	}
	svc.Close()
}

// TestLimitOverTCPLeavesNothingBehind runs the benchmark's cold_fetch
// early-exit statement over real sockets: LIMIT closes the join while its
// joiners and their prefetches are mid-exchange, so every statement
// abandons a few TCP calls. Each must still return with its slot and
// weight released and without growing the goroutine census — the client
// side (joiners, prefetches, socket watchers) is reaped before SubmitSQL
// returns; the server's handler of an abandoned connection finishes its
// exchange and exits, and the redialed connection's handler replaces it.
func TestLimitOverTCPLeavesNothingBehind(t *testing.T) {
	ds, err := oilres.Generate(benchShape)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 4, ComputeNodes: 2, CacheBytes: 1 << 20,
		DiskReadBw: 20e6, NetBw: 10e6, UseTCP: true, Wire: "colenc",
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	svc := newService(cl, Config{MaxInFlight: 2, Prefetch: 2})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec(benchView); err != nil {
		t.Fatal(err)
	}
	// One census for the whole run, taken with every connection dialed: a
	// per-statement census could start one connection short and report
	// the redial as growth.
	check := leakcheck.Check(t)
	for i := 0; i < 8; i++ {
		resp, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: "SELECT * FROM V1 LIMIT 64"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows.NumRows() != 64 {
			t.Fatalf("LIMIT 64 returned %d rows", resp.Rows.NumRows())
		}
		if resp.Result.UnitsJoined >= resp.Result.UnitsTotal {
			t.Fatalf("no early exit: joined %d of %d edges", resp.Result.UnitsJoined, resp.Result.UnitsTotal)
		}
		requireIdle(t, svc)
		check()
	}
}

// requireIdle asserts no statement holds a slot or admission weight.
func requireIdle(t *testing.T, svc *Service) {
	t.Helper()
	svc.mu.Lock()
	inflight, memUsed := svc.inflight, svc.memUsed
	svc.mu.Unlock()
	if inflight != 0 || memUsed != 0 {
		t.Errorf("%d in flight, %d bytes admitted, want 0 and 0", inflight, memUsed)
	}
}
