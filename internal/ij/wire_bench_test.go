package ij

import (
	"context"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkIJWire runs the end-to-end IJ workload on the same throttled
// cluster shape as BenchmarkIJWorkload but with 8 MB/s NICs — network
// wait well above the modeled CPU time, the regime where bytes-on-wire
// set the wall clock — under each fetch codec. The
// colenc leg ships compressed columnar frames storage→compute; the
// fetchMB metric is the modeled NIC volume, so the two legs expose the
// wire-byte reduction and its wall-clock payoff directly.
func BenchmarkIJWire(b *testing.B) {
	grid := partition.D(32, 32, 32)
	pq := partition.D(8, 8, 8)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: pq, RightPart: pq, StorageNodes: 4, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, wire := range []string{"rowmajor", "colenc"} {
		b.Run("wire="+wire, func(b *testing.B) {
			var fetchedMB float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := cluster.New(cluster.Config{
					StorageNodes: 4, ComputeNodes: 4, CacheBytes: 64 << 20,
					NetBw: 8 << 20, CPUSecPerOp: 1e-6, Wire: wire,
				}, ds.Catalog, ds.Stores)
				if err != nil {
					b.Fatal(err)
				}
				r := req()
				r.Prefetch = 2
				b.StartTimer()
				res, err := engine.RunRequest(context.Background(), New(), cl, r)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Tuples != grid.Cells() {
					b.Fatalf("tuples = %d, want %d", res.Tuples, grid.Cells())
				}
				fetchedMB = float64(res.Traffic.NetBytesToCompute) / (1 << 20)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(fetchedMB, "fetchMB")
		})
	}
}
