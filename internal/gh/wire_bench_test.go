package gh

import (
	"context"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkGHWire runs the Grace Hash workload on a throttled cluster
// under each fetch codec. GH's wire volume is its partitioning streams:
// with the colenc codec the routed batches are charged their compressed
// size (dictionary-coded partition keys compress well), so the fetchMB
// metric exposes the ship-byte reduction and the wall-clock payoff on
// the 8 MB/s NICs (network wait well above the modeled CPU time).
func BenchmarkGHWire(b *testing.B) {
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
				b.StartTimer()
				res, err := engine.RunRequest(context.Background(), New(), cl, req())
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
