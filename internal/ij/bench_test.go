package ij

import (
	"context"
	"fmt"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkIJWorkload measures end-to-end IJ wall clock on a throttled
// cluster sized so per-joiner network wait and modeled CPU time are
// comparable (~16ms each): the regime where prefetch overlap pays. The
// prefetch=0 run is the sequential fetch→build→probe baseline; prefetch=2
// overlaps the next edges' fetches with the current edge's compute.
func BenchmarkIJWorkload(b *testing.B) {
	grid := partition.D(32, 32, 32)
	pq := partition.D(8, 8, 8)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: pq, RightPart: pq, StorageNodes: 4, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{0, 2} {
		b.Run(fmt.Sprintf("prefetch=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := cluster.New(cluster.Config{
					StorageNodes: 4, ComputeNodes: 4, CacheBytes: 64 << 20,
					NetBw: 16 << 20, CPUSecPerOp: 1e-6,
				}, ds.Catalog, ds.Stores)
				if err != nil {
					b.Fatal(err)
				}
				r := req()
				r.Prefetch = depth
				b.StartTimer()
				res, err := engine.RunRequest(context.Background(), New(), cl, r)
				if err != nil {
					b.Fatal(err)
				}
				if res.Tuples != grid.Cells() {
					b.Fatalf("tuples = %d, want %d", res.Tuples, grid.Cells())
				}
			}
		})
	}
}

// BenchmarkIJMetricsOverhead runs the same IJ workload with instrumentation
// absent (nil registry: every instrument call is a nil-receiver no-op) and
// present (live registry: cache hit/miss, fetch, singleflight and breaker
// counters all firing on the hot path). The delta between the two legs is
// the full observability tax.
func BenchmarkIJMetricsOverhead(b *testing.B) {
	grid := partition.D(32, 32, 32)
	pq := partition.D(8, 8, 8)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: pq, RightPart: pq, StorageNodes: 4, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		reg  func() *metrics.Registry
	}{
		{"noop", func() *metrics.Registry { return nil }},
		{"instrumented", metrics.NewRegistry},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := cluster.New(cluster.Config{
					StorageNodes: 4, ComputeNodes: 4, CacheBytes: 64 << 20,
					NetBw: 16 << 20, CPUSecPerOp: 1e-6,
					Metrics: leg.reg(),
				}, ds.Catalog, ds.Stores)
				if err != nil {
					b.Fatal(err)
				}
				r := req()
				r.Prefetch = 2
				b.StartTimer()
				res, err := engine.RunRequest(context.Background(), New(), cl, r)
				if err != nil {
					b.Fatal(err)
				}
				if res.Tuples != grid.Cells() {
					b.Fatalf("tuples = %d, want %d", res.Tuples, grid.Cells())
				}
			}
		})
	}
}

// BenchmarkWarmRepeat re-runs one IJ statement on an unthrottled, warm,
// shared cluster — warm_join's regime: every frame, every left's decoded
// rows and every edge's match pairs are already in the node caches, so a
// statement fetches from the cache, decodes its right carriers' payload
// columns and gathers. "full" demands every column; "count" demands none,
// as COUNT(*) does, so it decodes and gathers nothing and only counts.
// built/op and probed/op count the tuples the statement still built and
// probed (both 0 once the caches are warm).
func BenchmarkWarmRepeat(b *testing.B) {
	grid := partition.D(32, 32, 16)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: partition.D(8, 8, 8), RightPart: partition.D(8, 8, 4), StorageNodes: 2, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 64 << 20, Wire: "colenc",
	}, ds.Catalog, ds.Stores)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		project []string
	}{{"full", nil}, {"count", []string{}}} {
		b.Run(bc.name, func(b *testing.B) {
			r := req()
			r.Shared, r.Project = true, bc.project
			if _, err := engine.RunRequest(context.Background(), New(), cl, r); err != nil { // warm the caches
				b.Fatal(err)
			}
			var built, probed int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engine.RunRequest(context.Background(), New(), cl, r)
				if err != nil {
					b.Fatal(err)
				}
				if res.Tuples != grid.Cells() {
					b.Fatalf("tuples = %d, want %d", res.Tuples, grid.Cells())
				}
				built += res.Join.TuplesBuilt
				probed += res.Join.TuplesProbed
			}
			b.ReportMetric(float64(built)/float64(b.N), "built/op")
			b.ReportMetric(float64(probed)/float64(b.N), "probed/op")
		})
	}
}
