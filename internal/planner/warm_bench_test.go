package planner

import (
	"context"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkWarmStatement runs SQL statements through the streaming plan
// path — Lower, then plan.Run under ExecLowered — on a warm, shared,
// unthrottled cluster over the service benchmark's dataset shape: the
// node caches hold every frame, left rows and match pairs, and the catalog
// holds each statement's join graph and schedule. One op is one
// statement, so ns/op, B/op and allocs/op price what a warm statement
// still does and allocates. Unlike the engine-level BenchmarkWarmRepeat it
// streams through a sink, whose batches the join recycles.
func BenchmarkWarmStatement(b *testing.B) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(64, 64, 32), LeftPart: partition.D(16, 16, 8), RightPart: partition.D(8, 8, 8),
		StorageNodes: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{StorageNodes: 4, ComputeNodes: 2, CacheBytes: 64 << 20, Wire: "colenc"}, ds.Catalog, ds.Stores)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild, ex.Planner.AlphaLookup = 80e-9, 40e-9
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		b.Fatal(err)
	}
	// run executes sql as the query service does: shared, prefetching.
	run := func(sql string) {
		l, err := ex.Lower(sql)
		if err != nil {
			b.Fatal(err)
		}
		l.Join.In.Req.Shared, l.Join.In.Req.Prefetch = true, engine.DefaultPrefetch
		if _, err := ex.ExecLowered(context.Background(), l); err != nil {
			b.Fatal(err)
		}
	}
	cases := []struct{ name, sql string }{
		{"count", "SELECT COUNT(*) FROM V1"},
		{"range-star", "SELECT * FROM V1 WHERE x BETWEEN 0 AND 15"},
		{"z=1", "SELECT wp, oilp FROM V1 WHERE z = 1"},
		{"group-x", "SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x"},
		{"group-xy", "SELECT x, y, COUNT(*), SUM(oilp) FROM V1 GROUP BY x, y ORDER BY x, y"},
		{"topk", "SELECT * FROM V1 ORDER BY wp DESC, x, y, z LIMIT 100"},
		{"limit", "SELECT * FROM V1 WHERE x >= 8 AND y < 24 LIMIT 1000"},
	}
	for _, c := range cases { // warm the caches, the join graphs and the estimator
		for range 3 {
			run(c.sql)
		}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(c.sql)
			}
		})
	}
}
