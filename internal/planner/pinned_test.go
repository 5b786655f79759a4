package planner_test

import (
	"context"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/ingest"
	"sciview/internal/leakcheck"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/planner"
)

// TestLoweredPlanIgnoresLaterAppend: lowering resolves the statement's
// chunk sets once, so a batch that commits between Lower and ExecLowered
// reaches neither the decision nor the run, and the next lowering sees it
// whole.
func TestLoweredPlanIgnoresLaterAppend(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := oilres.Config{
		Grid:     partition.D(8, 8, 12),
		LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 7,
	}
	for _, force := range []string{"ij", "gh"} {
		ds, steps, err := oilres.GenerateSteps(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 8 << 20}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		ing, err := ingest.New(ingest.Config{Catalog: ds.Catalog, Stores: ds.Stores, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		ex := planner.NewExecutor(cl)
		ex.Planner.AlphaBuild, ex.Planner.AlphaLookup = 80e-9, 40e-9
		ex.Planner.Force = force
		if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
			t.Fatal(err)
		}
		base, full := ds.Config.Grid.Cells(), cfg.Grid.Cells()

		l, err := ex.Lower("SELECT * FROM V1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Append(ingest.FromStepChunks(0, steps[0])); err != nil {
			t.Fatal(err)
		}
		pinned, err := ex.ExecLowered(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", force, err)
		}
		if got := int64(pinned.Rows.NumRows()); got != base || l.Decision.Params.T != base {
			t.Errorf("%s: plan lowered before the append returned %d rows and priced T = %d, want the base %d",
				force, got, l.Decision.Params.T, base)
		}
		out, err := ex.Exec("SELECT COUNT(*) FROM V1")
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(out.Rows.Value(0, 0)); got != full {
			t.Errorf("%s: COUNT(*) lowered after the append = %d, want %d", force, got, full)
		}
	}
}
