package ij

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

// encodeCollected serializes every joiner output in joiner order, giving a
// byte-exact fingerprint of the full result.
func encodeCollected(sts []*tuple.SubTable) []byte {
	var buf []byte
	for _, st := range sts {
		buf = tuple.Encode(buf, st)
	}
	return buf
}

// TestPipelinedByteIdentical pins the tentpole contract: turning on
// prefetch and widening the kernels (GOMAXPROCS) changes overlap and wall
// clock only — the collected outputs are byte-for-byte those of the
// sequential run.
func TestPipelinedByteIdentical(t *testing.T) {
	grid := partition.D(16, 16, 8)
	q := partition.D(4, 4, 4)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	run := func(prefetch, procs int) []byte {
		runtime.GOMAXPROCS(procs)
		cl := makeCluster(t, grid, q, q, 2, 3, 32<<20)
		r := req()
		r.Collect = true
		r.Prefetch = prefetch
		res, err := engine.RunRequest(context.Background(), New(), cl, r)
		if err != nil {
			t.Fatal(err)
		}
		return encodeCollected(res.Collected)
	}

	sequential := run(0, 1)
	for _, tc := range []struct{ prefetch, procs int }{
		{2, 1}, // prefetch only
		{0, 4}, // wide kernels only
		{2, 4}, // both
		{8, 2}, // deep lookahead
	} {
		if got := run(tc.prefetch, tc.procs); !bytes.Equal(got, sequential) {
			t.Errorf("prefetch=%d GOMAXPROCS=%d: collected output differs from sequential run",
				tc.prefetch, tc.procs)
		}
	}
}

// TestPrefetchCountersMatchSequential pins the accounting contract: the
// prefetcher warms the cache stat-free and through the same singleflight
// the demand path uses, so the demand lookup count is unchanged and every
// distinct sub-table still moves over the network exactly once (a prefetch
// the joiner overtakes counts as the demand path's one miss; a prefetch
// that completes first upgrades that miss to a hit — never a second fetch).
func TestPrefetchCountersMatchSequential(t *testing.T) {
	grid := partition.D(16, 16, 8)
	q := partition.D(4, 4, 4)

	counters := func(prefetch int) (misses, lookups, netBytes int64) {
		cl := makeCluster(t, grid, q, q, 2, 3, 32<<20)
		r := req()
		r.Prefetch = prefetch
		res, err := engine.RunRequest(context.Background(), New(), cl, r)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cache.Misses, res.Cache.Misses + res.Cache.Hits, res.Traffic.NetBytesToCompute
	}

	m0, l0, b0 := counters(0)
	m2, l2, b2 := counters(2)
	if l0 != l2 {
		t.Errorf("demand lookups changed under prefetch: %d→%d", l0, l2)
	}
	if m2 > m0 {
		t.Errorf("prefetch added misses: %d→%d", m0, m2)
	}
	if b0 != b2 {
		t.Errorf("net bytes changed under prefetch: %d→%d (sub-table fetched twice?)", b0, b2)
	}
}
