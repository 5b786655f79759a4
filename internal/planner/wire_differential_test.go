package planner

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
)

// Wire-compression differential: every leg in this file runs the same
// query twice — once over the row-major fetch codec, once over the
// compressed columnar one — and requires the results to agree. The codec
// must be bit-invisible: extract → filter/project → encode → decode
// reproduces the row-major fetch byte for byte, under every format,
// engine, scheduling knob, and fault schedule.

// wireExecutor builds an executor over ds with the given fetch codec.
func wireExecutor(t *testing.T, ds *oilres.Dataset, storage, nj int, force, wire string) *Executor {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		StorageNodes: storage, ComputeNodes: nj, CacheBytes: 16 << 20, Wire: wire,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	ex.Planner.Force = force
	for _, ddl := range []string{
		"CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)",
		"CREATE VIEW V2 AS SELECT * FROM V1 WHERE x BETWEEN 0 AND 4",
	} {
		if _, err := ex.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

// TestGoldenCorpusWireInvariant runs the whole golden SQL corpus with the
// wire codec on and off, over both chunk formats and both engines: the
// comparison is byte-exact for every query.
func TestGoldenCorpusWireInvariant(t *testing.T) {
	for _, format := range []string{"rowmajor", "rle"} {
		for _, force := range []string{"ij", "gh"} {
			t.Run(format+"/"+force, func(t *testing.T) {
				ds, err := oilres.Generate(oilres.Config{
					Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
					StorageNodes: 2, Seed: 11, Format: format,
				})
				if err != nil {
					t.Fatal(err)
				}
				plain := wireExecutor(t, ds, 2, 2, force, "")
				enc := wireExecutor(t, ds, 2, 2, force, "colenc")
				for _, sql := range goldenCorpus {
					a, errA := plain.Exec(sql)
					b, errB := enc.Exec(sql)
					if (errA != nil) != (errB != nil) {
						t.Fatalf("%s: rowmajor err=%v, colenc err=%v", sql, errA, errB)
					}
					if errA != nil {
						continue
					}
					diffCompare(t, sql, "rowmajor vs colenc", a, b, true)
				}
			})
		}
	}
}

// TestDifferentialWireRandom is the property-harness leg: random datasets
// (format randomized too), random queries, a random prefetch depth and
// GOMAXPROCS on the compressed side — the decoded bytes must match the
// row-major run exactly.
func TestDifferentialWireRandom(t *testing.T) {
	const queriesPerSeed = 5
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 5531))
			cfg := diffConfigs[r.Intn(len(diffConfigs))]
			cfg.StorageNodes = 2 + r.Intn(2)
			cfg.Seed = 1 + r.Int63n(1<<30)
			if r.Intn(2) == 0 {
				cfg.Format = "rle"
			}
			ds, err := oilres.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dims := [3]int{cfg.Grid.X, cfg.Grid.Y, cfg.Grid.Z}
			nj := 1 + r.Intn(3)
			plain := wireExecutor(t, ds, cfg.StorageNodes, nj, "ij", "")
			enc := wireExecutor(t, ds, cfg.StorageNodes, nj, "ij", "colenc")
			for q := 0; q < queriesPerSeed; q++ {
				sql, _ := genDiffQuery(r, dims)
				base := runDiffLeg(t, plain, sql, false, 0, 0)
				pf, procs := r.Intn(3), 1<<r.Intn(3)
				got := runDiffLeg(t, enc, sql, false, pf, procs)
				diffCompare(t, fmt.Sprintf("%s [prefetch=%d GOMAXPROCS=%d]", sql, pf, procs),
					"rowmajor vs colenc", base, got, true)
			}
		})
	}
}

// TestDifferentialWireUnderFaults gives both codecs the identical
// op-counted chaos schedule over a replicated dataset: retries, failovers
// and engine recoveries must stay byte-invisible with the compressed form
// traveling the failover path.
func TestDifferentialWireUnderFaults(t *testing.T) {
	cfg := oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 23, Format: "rle",
	}
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	newEx := func(t *testing.T, wire string) *Executor {
		inj, err := fault.Parse("crash:storage-1:fetch:5,crash:compute-0:edge:3")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			StorageNodes: 3, ComputeNodes: 2, CacheBytes: 16 << 20, Wire: wire,
			Faults:           inj,
			Retry:            retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
			BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
		}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cl)
		ex.Planner.AlphaBuild = 80e-9
		ex.Planner.AlphaLookup = 40e-9
		ex.Planner.Force = "ij"
		if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
			t.Fatal(err)
		}
		return ex
	}
	r := rand.New(rand.NewSource(777))
	dims := [3]int{8, 8, 4}
	for q := 0; q < 4; q++ {
		sql, _ := genDiffQuery(r, dims)
		a := runDiffLeg(t, newEx(t, ""), sql, false, 0, 0)
		b := runDiffLeg(t, newEx(t, "colenc"), sql, false, 0, 0)
		diffCompare(t, sql, "faulted rowmajor vs colenc", a, b, true)
	}
}
