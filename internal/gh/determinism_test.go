package gh

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

// TestGHDeterministic pins Grace Hash's defined output order: with three
// storage nodes scanning concurrently, the collected output is byte-for-
// byte the same on every run, at every kernel width (GOMAXPROCS) and on
// either wire format. Bucket blocks are tagged with the scanning storage
// slot and read back in slot order, so scanner interleaving never reaches
// the rows. Two buckets over 16 Ki rows give every (group, bucket, slot)
// buffer more than one block, so blocks are written while the scanners
// still race, not only by the final flush.
func TestGHDeterministic(t *testing.T) {
	const ns, nj = 3, 2
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(32, 32, 16), LeftPart: partition.D(8, 8, 8), RightPart: partition.D(8, 8, 4),
		StorageNodes: ns, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(procs int, wire string) []byte {
		runtime.GOMAXPROCS(procs)
		cl, err := cluster.New(cluster.Config{
			StorageNodes: ns, ComputeNodes: nj, CacheBytes: 32 << 20, Wire: wire,
		}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		r := req()
		r.Collect = true
		res, err := engine.RunRequest(context.Background(), &Engine{Buckets: 2}, cl, r)
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

	want := run(1, "")
	legs := []struct {
		procs int
		wire  string
	}{{2, ""}, {4, ""}, {1, "colenc"}, {4, "colenc"}}
	for range 20 {
		legs = append(legs, legs[0])
	}
	for i, leg := range legs {
		if !bytes.Equal(run(leg.procs, leg.wire), want) {
			t.Fatalf("run %d (GOMAXPROCS=%d wire=%q): output differs from the first run",
				i, leg.procs, leg.wire)
		}
	}
}
