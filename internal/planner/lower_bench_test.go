package planner

import (
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// BenchmarkLower prices what a statement costs before admission — parse,
// resolve, decide, plan — on the service benchmark's dataset shape (64 left
// × 256 right sub-tables over 4 storage nodes). A view statement is
// dominated by the one connectivity-graph build its resolution does; a
// table scan has none.
func BenchmarkLower(b *testing.B) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(64, 64, 32), LeftPart: partition.D(16, 16, 8), RightPart: partition.D(8, 8, 8),
		StorageNodes: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{StorageNodes: 4, ComputeNodes: 2, CacheBytes: 64 << 20}, ds.Catalog, ds.Stores)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild, ex.Planner.AlphaLookup = 80e-9, 40e-9
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, sql string }{
		{"view-full-range", "SELECT COUNT(*) FROM V1"},
		{"view-z=1", "SELECT wp, oilp FROM V1 WHERE z = 1"},
		{"table-scan", "SELECT x, oilp FROM T1 WHERE x BETWEEN 0 AND 15"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Lower(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
