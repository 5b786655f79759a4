package gh

import (
	"bytes"
	"context"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

// TestParallelByteIdentical pins the parallel-kernel contract for Grace
// Hash: with a single storage node the scan order is deterministic, so the
// collected joiner outputs must be byte-for-byte identical whatever the
// hash-join worker count. (With several storage nodes the *scanners*
// interleave nondeterministically — that is inherent to GH and unrelated
// to kernel parallelism, so the fixture uses one.)
func TestParallelByteIdentical(t *testing.T) {
	grid := partition.D(16, 16, 8)
	q := partition.D(4, 4, 4)

	run := func(parallelism int) []byte {
		cl := makeCluster(t, grid, q, q, 1, 3)
		r := req()
		r.Collect = true
		r.Parallelism = parallelism
		res, err := engine.RunRequest(context.Background(), New(), cl, r)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, st := range res.Collected {
			buf = tuple.Encode(buf, st)
		}
		if len(buf) == 0 {
			t.Fatal("empty collected output")
		}
		return buf
	}

	serial := run(1)
	for _, workers := range []int{2, 4, 0} {
		if !bytes.Equal(run(workers), serial) {
			t.Errorf("parallelism=%d: collected output differs from serial run", workers)
		}
	}
}
