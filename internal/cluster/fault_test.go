package cluster

import (
	"errors"
	"testing"
	"time"

	"sciview/internal/breaker"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/retry"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

func fastRetry() retry.Policy {
	return retry.Policy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}
}

func TestFetchFailsOverToReplica(t *testing.T) {
	ds := testDataset(t, 2)
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	cl := build(t, Config{
		StorageNodes: 2, ComputeNodes: 1, Faults: inj, Retry: fastRetry(),
	}, ds)
	id := tuple.ID{Table: ds.Left.ID, Chunk: 0}
	desc, err := cl.Catalog.Chunk(id.Table, id.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	inj.Kill(fault.StorageNode(desc.Node))

	before := cl.Account()
	st, err := fetchRows(cl, 0, id, nil)
	if err != nil {
		t.Fatalf("fetch with primary down: %v", err)
	}
	if st.NumRows() != 64 {
		t.Errorf("rows = %d, want 64", st.NumRows())
	}
	hs := cl.Account().Sub(before).Health
	if hs.Failovers == 0 {
		t.Error("no failover recorded despite primary being down")
	}
	if hs.Retries == 0 {
		t.Error("no retries recorded against the dead primary")
	}
}

func TestFetchFailsWithoutReplicas(t *testing.T) {
	ds := testDataset(t, 2)
	inj := fault.New()
	cl := build(t, Config{
		StorageNodes: 2, ComputeNodes: 1, Faults: inj, Retry: fastRetry(),
	}, ds)
	id := tuple.ID{Table: ds.Left.ID, Chunk: 0}
	desc, err := cl.Catalog.Chunk(id.Table, id.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	inj.Kill(fault.StorageNode(desc.Node))

	if _, err := fetchRows(cl, 0, id, nil); err == nil {
		t.Fatal("unreplicated chunk on a dead node should not be fetchable")
	} else if !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("error should classify as unavailable, got %v", err)
	}
}

func TestFetchRetriesTransientDrops(t *testing.T) {
	ds := testDataset(t, 1)
	// Every 2nd fetch attempt on the node fails with a retryable error:
	// every fetch still succeeds (at most one retry each), and successes
	// between failures keep the breaker closed.
	inj := fault.New(fault.Rule{
		Node: fault.StorageNode(0), Op: fault.OpFetch, Action: fault.Drop, Every: 2,
	})
	cl := build(t, Config{
		StorageNodes: 1, ComputeNodes: 1, Faults: inj,
		Retry: retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	}, ds)
	before := cl.Account()
	for _, d := range cl.Catalog.Chunks(ds.Left.ID) {
		if _, err := fetchRows(cl, 0, d.ID(), nil); err != nil {
			t.Fatalf("chunk %v: %v", d.ID(), err)
		}
	}
	hs := cl.Account().Sub(before).Health
	if hs.Retries == 0 {
		t.Error("drops injected but no retries recorded")
	}
	if hs.BreakerTrips != 0 {
		t.Errorf("breaker tripped %d times on non-consecutive failures", hs.BreakerTrips)
	}
	if cl.StorageBreaker(0).State() != breaker.Closed {
		t.Error("breaker should stay closed when every fetch eventually succeeds")
	}
}

func TestBreakerGatesDialsUntilProbe(t *testing.T) {
	ds := testDataset(t, 1)
	// The zero-duration Delay rule is a pure dial counter: it fires on
	// every fetch attempt that actually reaches the node (the down-check
	// precedes rule matching, so attempts against the crashed node do not
	// count — and neither do attempts the breaker refuses).
	inj := fault.New(fault.Rule{
		Node: fault.StorageNode(0), Op: fault.OpFetch, Action: fault.Delay, Every: 1,
	})
	cl := build(t, Config{
		StorageNodes: 1, ComputeNodes: 1, Faults: inj,
		Retry:            retry.Policy{Attempts: 1, Base: time.Millisecond},
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	}, ds)
	id := tuple.ID{Table: ds.Left.ID, Chunk: 0}

	// Two consecutive failures trip the breaker.
	before := cl.Account()
	inj.Kill(fault.StorageNode(0))
	for i := 0; i < 2; i++ {
		if _, err := fetchRows(cl, 0, id, nil); err == nil {
			t.Fatal("fetch from a dead node succeeded")
		}
	}
	if st := cl.StorageBreaker(0).State(); st != breaker.Open {
		t.Fatalf("breaker state after %d failures = %v, want Open", 2, st)
	}
	if hs := cl.Account().Sub(before).Health; hs.BreakerTrips != 1 {
		t.Errorf("trips = %d, want 1", hs.BreakerTrips)
	}

	// The node comes back — but until the cooldown elapses the breaker
	// must short-circuit fetches without dialing it at all.
	inj.Revive(fault.StorageNode(0))
	if _, err := fetchRows(cl, 0, id, nil); err == nil {
		t.Fatal("open breaker should refuse the fetch")
	} else if !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("breaker-open error should classify as unavailable, got %v", err)
	}
	if n := inj.Stats().Delays; n != 0 {
		t.Fatalf("node dialed %d times while the breaker was open", n)
	}

	// After the cooldown one half-open probe goes through, succeeds, and
	// closes the breaker.
	time.Sleep(70 * time.Millisecond)
	st, err := fetchRows(cl, 0, id, nil)
	if err != nil {
		t.Fatalf("probe fetch: %v", err)
	}
	if st.NumRows() != 64 {
		t.Errorf("rows = %d, want 64", st.NumRows())
	}
	if n := inj.Stats().Delays; n != 1 {
		t.Errorf("dials after cooldown = %d, want exactly 1 (the probe)", n)
	}
	if bst := cl.StorageBreaker(0).State(); bst != breaker.Closed {
		t.Errorf("breaker state after successful probe = %v, want Closed", bst)
	}
}
