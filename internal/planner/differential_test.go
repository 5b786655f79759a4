package planner

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
)

// Property-based differential harness: a seeded generator produces random
// SELECTs over randomized oil-reservoir datasets, and each query executes
// along several legs that must agree —
//
//   - streaming vs materialized, per engine (the golden oracle relation);
//   - streaming with a random prefetch depth and GOMAXPROCS vs the default;
//   - IJ vs GH cross-engine (the row multiset: the two engines' output
//     orders are each defined, but differ);
//   - a fault-injected leg (TestDifferentialUnderFaults) where fresh
//     op-counted injectors give materialized and streaming runs identical
//     fault schedules.
//
// Every leg within one engine compares byte for byte.

// genDiffWhere returns a random conjunction of range predicates over the
// coordinate axes (possibly empty). Bounds stay inside the grid, so no
// generated query has an empty result.
func genDiffWhere(r *rand.Rand, dims [3]int) string {
	axes := []string{"x", "y", "z"}
	var preds []string
	for i, a := range axes {
		switch r.Intn(4) {
		case 0:
			lo := r.Intn(dims[i])
			hi := lo + r.Intn(dims[i]-lo)
			preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", a, lo, hi))
		case 1:
			preds = append(preds, fmt.Sprintf("%s < %d", a, 1+r.Intn(dims[i])))
		}
	}
	if len(preds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(preds, " AND ")
}

// genDiffQuery returns one random SELECT over the join view V1 plus
// whether the two engines must agree on its row multiset. They need not
// when SUM or AVG folds floats in each engine's own row order, or when a
// LIMIT without a total ORDER BY keeps each engine's own first rows.
func genDiffQuery(r *rand.Rand, dims [3]int) (string, bool) {
	where := genDiffWhere(r, dims)
	if r.Intn(4) == 0 {
		gb := []string{"x", "y", "z"}[r.Intn(3)]
		aggs, cross := "COUNT(*), MIN(wp), MAX(oilp)", true
		if r.Intn(2) == 0 {
			aggs, cross = "COUNT(*), SUM(oilp), AVG(wp)", false
		}
		sql := fmt.Sprintf("SELECT %s, %s FROM V1%s GROUP BY %s", gb, aggs, where, gb)
		if r.Intn(2) == 0 {
			sql += fmt.Sprintf(" HAVING COUNT(*) >= %d", 1+r.Intn(4))
		}
		return sql + " ORDER BY " + gb, cross
	}
	proj := [...]string{"*", "x, y, z, wp", "x, y, z, oilp, wp", "x, y, z"}[r.Intn(4)]
	sql := fmt.Sprintf("SELECT %s FROM V1%s", proj, where)
	switch r.Intn(3) {
	case 0:
		// (x, y, z) identifies a join row, so this ORDER BY is total.
		sql += " ORDER BY x, y, z"
		if r.Intn(2) == 0 {
			sql += fmt.Sprintf(" LIMIT %d", r.Intn(40))
		}
	case 1:
		return sql + fmt.Sprintf(" LIMIT %d", r.Intn(40)), false
	}
	return sql, true
}

// diffConfigs are the dataset shapes the generator draws from; seeds and
// cluster sizes are randomized on top.
var diffConfigs = []oilres.Config{
	{Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4)},
	{Grid: partition.D(6, 6, 6), LeftPart: partition.D(3, 2, 3), RightPart: partition.D(2, 3, 2)},
	{Grid: partition.D(8, 4, 4), LeftPart: partition.D(2, 2, 2), RightPart: partition.D(4, 2, 1)},
}

func genDiffDataset(t *testing.T, r *rand.Rand) (*oilres.Dataset, oilres.Config, [3]int) {
	t.Helper()
	cfg := diffConfigs[r.Intn(len(diffConfigs))]
	cfg.StorageNodes = 2 + r.Intn(2)
	cfg.Seed = 1 + r.Int63n(1<<30)
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg, [3]int{cfg.Grid.X, cfg.Grid.Y, cfg.Grid.Z}
}

func diffExecutor(t *testing.T, ds *oilres.Dataset, cfg oilres.Config, nj int, force string) *Executor {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		StorageNodes: cfg.StorageNodes, ComputeNodes: nj, CacheBytes: 16 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	ex.Planner.Force = force
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	return ex
}

// diffCompare asserts two legs produced the same result: identical schema
// and rows, sorted canonically first unless exact (only the cross-engine
// leg compares multisets).
func diffCompare(t *testing.T, sql, legs string, a, b *Output, exact bool) {
	t.Helper()
	an, bn := a.Rows.Schema.Names(), b.Rows.Schema.Names()
	if fmt.Sprint(an) != fmt.Sprint(bn) {
		t.Fatalf("%s [%s]: schema %v vs %v", sql, legs, an, bn)
	}
	ar, br := goldenRows(a.Rows), goldenRows(b.Rows)
	if !exact {
		sort.Strings(ar)
		sort.Strings(br)
	}
	if len(ar) != len(br) {
		t.Fatalf("%s [%s]: %d rows vs %d", sql, legs, len(ar), len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("%s [%s]: row %d = %s vs %s", sql, legs, i, ar[i], br[i])
		}
	}
}

// runDiffLeg executes sql on ex, materialized or streaming, with an
// optional prefetch depth on the streaming leg and, for procs > 0, the
// kernels at GOMAXPROCS = procs for the leg.
func runDiffLeg(t *testing.T, ex *Executor, sql string, materialize bool, prefetch, procs int) *Output {
	t.Helper()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	if materialize {
		ex.Materialize = true
		defer func() { ex.Materialize = false }()
		out, err := ex.Exec(sql)
		if err != nil {
			t.Fatalf("%s [materialized]: %v", sql, err)
		}
		return out
	}
	l, err := ex.Lower(sql)
	if err != nil {
		t.Fatalf("%s [lower]: %v", sql, err)
	}
	if l.Join != nil {
		l.Join.In.Req.Prefetch = prefetch
	}
	out, err := ex.ExecLowered(context.Background(), l)
	if err != nil {
		t.Fatalf("%s [streaming]: %v", sql, err)
	}
	return out
}

// TestDifferentialRandomQueries is the property harness' fault-free body:
// per seed, one randomized dataset and a batch of generated queries, each
// run along the streaming/materialized, knob, and cross-engine legs.
func TestDifferentialRandomQueries(t *testing.T) {
	const queriesPerSeed = 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 9176))
			ds, cfg, dims := genDiffDataset(t, r)
			nj := 1 + r.Intn(3)
			exIJ := diffExecutor(t, ds, cfg, nj, "ij")
			exGH := diffExecutor(t, ds, cfg, nj, "gh")
			for q := 0; q < queriesPerSeed; q++ {
				sql, cross := genDiffQuery(r, dims)
				matIJ := runDiffLeg(t, exIJ, sql, true, 0, 0)
				strIJ := runDiffLeg(t, exIJ, sql, false, 0, 0)
				matGH := runDiffLeg(t, exGH, sql, true, 0, 0)
				strGH := runDiffLeg(t, exGH, sql, false, 0, 0)

				// Streaming must reproduce materialized byte for byte under
				// either engine.
				diffCompare(t, sql, "ij stream vs mat", matIJ, strIJ, true)
				diffCompare(t, sql, "gh stream vs mat", matGH, strGH, true)

				// Prefetch depth and kernel width change timing, never bytes.
				pf, procs := r.Intn(3), 1<<r.Intn(3)
				label := fmt.Sprintf("%s [prefetch=%d GOMAXPROCS=%d]", sql, pf, procs)
				diffCompare(t, label, "ij knobs vs mat", matIJ, runDiffLeg(t, exIJ, sql, false, pf, procs), true)
				diffCompare(t, label, "gh knobs vs mat", matGH, runDiffLeg(t, exGH, sql, false, pf, procs), true)

				// Cross-engine: the two QES implementations agree on the
				// row multiset.
				if cross {
					diffCompare(t, sql, "ij vs gh", matIJ, matGH, false)
				}
			}
		})
	}
}

// TestDifferentialUnderFaults adds the fault-injected leg: generated
// queries over a replicated dataset, streaming vs materialized under an
// op-counted chaos schedule. Fresh clusters per leg give both runs the
// identical fault sequence, so recovery must be byte-invisible.
func TestDifferentialUnderFaults(t *testing.T) {
	cfg := oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 23,
	}
	ds, err := oilres.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	newEx := func(t *testing.T, faults string) *Executor {
		inj, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			StorageNodes: 3, ComputeNodes: 2, CacheBytes: 16 << 20,
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
	const faults = "crash:storage-1:fetch:5,crash:compute-0:edge:3"
	r := rand.New(rand.NewSource(4242))
	dims := [3]int{8, 8, 4}
	for q := 0; q < 4; q++ {
		sql, _ := genDiffQuery(r, dims)
		mat := runDiffLeg(t, newEx(t, faults), sql, true, 0, 0)
		str := runDiffLeg(t, newEx(t, faults), sql, false, 0, 0)
		diffCompare(t, sql, "faulted stream vs mat", mat, str, true)
	}
}
