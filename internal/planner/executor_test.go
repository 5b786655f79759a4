package planner

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/query"
)

func testExecutor(t *testing.T) *Executor {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
		StorageNodes: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	return ex
}

func TestExecCreateAndSelectView(t *testing.T) {
	ex := testExecutor(t)
	out, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)")
	if err != nil {
		t.Fatal(err)
	}
	if out.ViewCreated != "V1" {
		t.Errorf("out = %+v", out)
	}
	if _, ok := ex.View("V1"); !ok {
		t.Fatal("view not registered")
	}
	// Duplicate view rejected.
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x)"); err == nil {
		t.Error("duplicate view accepted")
	}

	out, err = ex.Exec("SELECT * FROM V1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 8*8*4 {
		t.Errorf("rows = %d", out.Rows.NumRows())
	}
	if out.Result == nil || out.Decision == nil {
		t.Error("missing execution metadata")
	}
	if got := out.Rows.Schema.Names(); len(got) != 5 {
		t.Errorf("schema = %v", got)
	}
}

func TestExecSelectViewWithRange(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	out, err := ex.Exec("SELECT * FROM V1 WHERE x BETWEEN 0 AND 3 AND z = 0")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 4*8 {
		t.Errorf("rows = %d, want 32", out.Rows.NumRows())
	}
}

func TestExecProjection(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	out, err := ex.Exec("SELECT wp, oilp FROM V1 WHERE z = 1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.Schema.NumAttrs() != 2 || out.Rows.Schema.Attrs[0].Name != "wp" {
		t.Errorf("schema = %v", out.Rows.Schema.Names())
	}
	if out.Rows.NumRows() != 64 {
		t.Errorf("rows = %d", out.Rows.NumRows())
	}
}

func TestExecTableScan(t *testing.T) {
	ex := testExecutor(t)
	out, err := ex.Exec("SELECT * FROM T1 WHERE x = 0 AND y = 0")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", out.Rows.NumRows())
	}
	if out.Result != nil {
		t.Error("table scan should not report a join result")
	}
}

func TestExecAggregates(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	out, err := ex.Exec("SELECT AVG(wp), COUNT(*) FROM V1 GROUP BY z")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 4 {
		t.Fatalf("groups = %d", out.Rows.NumRows())
	}
	for r := 0; r < 4; r++ {
		if out.Rows.Value(r, 2) != 64 {
			t.Errorf("group %d count = %v", r, out.Rows.Value(r, 2))
		}
	}
	// Aggregate over a plain table.
	out, err = ex.Exec("SELECT MAX(oilp) FROM T1")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 1 {
		t.Errorf("rows = %d", out.Rows.NumRows())
	}
	if v := out.Rows.Value(0, 0); v <= 0 || v >= 1 {
		t.Errorf("max oilp = %v", v)
	}
}

func TestExecHaving(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	all, err := ex.Exec("SELECT AVG(wp) FROM V1 GROUP BY z")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := ex.Exec("SELECT AVG(wp) FROM V1 GROUP BY z HAVING AVG(wp) >= 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if kept.Rows.NumRows() >= all.Rows.NumRows() {
		t.Errorf("HAVING kept %d of %d groups", kept.Rows.NumRows(), all.Rows.NumRows())
	}
	for r := 0; r < kept.Rows.NumRows(); r++ {
		if kept.Rows.Value(r, 1) < 0.5 {
			t.Errorf("group %d avg = %v below threshold", r, kept.Rows.Value(r, 1))
		}
	}
}

func TestExecValidationErrors(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"SELECT zzz syntax error FROM",
		"SELECT * FROM NoSuchTable",
		"SELECT *, wp FROM V1",
		"SELECT wp, AVG(oilp) FROM V1 GROUP BY z",     // wp not in GROUP BY
		"SELECT wp FROM V1 GROUP BY wp HAVING wp = 1", // having needs agg... parser catches
		"SELECT wp FROM V1 GROUP BY wp",               // group by without aggregates
	}
	for _, q := range bad {
		if _, err := ex.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
}

func TestExecGroupedPlainColumn(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	// z appears in GROUP BY, so selecting it alongside aggregates is legal.
	out, err := ex.Exec("SELECT z, AVG(wp) FROM V1 GROUP BY z")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.Schema.Attrs[0].Name != "z" {
		t.Errorf("schema = %v", out.Rows.Schema.Names())
	}
}

func TestExecOrderByAndLimit(t *testing.T) {
	ex := testExecutor(t)
	out, err := ex.Exec("SELECT * FROM T1 WHERE y = 0 AND z = 0 ORDER BY x DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 3 {
		t.Fatalf("rows = %d", out.Rows.NumRows())
	}
	// x ∈ 0..7 descending: 7, 6, 5.
	for i, want := range []float32{7, 6, 5} {
		if out.Rows.Value(i, 0) != want {
			t.Errorf("row %d x = %v, want %v", i, out.Rows.Value(i, 0), want)
		}
	}
	// ORDER BY over aggregation output columns.
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	out, err = ex.Exec("SELECT z, AVG(wp) FROM V1 GROUP BY z ORDER BY avg_wp DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows.NumRows() != 2 {
		t.Fatalf("rows = %d", out.Rows.NumRows())
	}
	if out.Rows.Value(0, 1) < out.Rows.Value(1, 1) {
		t.Error("not descending by avg_wp")
	}
	// Unknown order column fails.
	if _, err := ex.Exec("SELECT * FROM T1 ORDER BY nope"); err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
	// LIMIT 0 gives empty result.
	out, err = ex.Exec("SELECT * FROM T1 LIMIT 0")
	if err != nil || out.Rows.NumRows() != 0 {
		t.Errorf("LIMIT 0: rows=%d err=%v", out.Rows.NumRows(), err)
	}
}

func TestExecDerivedView(t *testing.T) {
	ex := testExecutor(t)
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z) WHERE z BETWEEN 0 AND 1"); err != nil {
		t.Fatal(err)
	}
	// Restriction view layered on V1: predicates stack.
	if _, err := ex.Exec("CREATE VIEW V2 AS SELECT * FROM V1 WHERE x BETWEEN 0 AND 3"); err != nil {
		t.Fatal(err)
	}
	out, err := ex.Exec("SELECT COUNT(*) FROM V2")
	if err != nil {
		t.Fatal(err)
	}
	// x ∈ 0..3, z ∈ 0..1, y free (8): 4·8·2 = 64.
	if out.Rows.Value(0, 0) != 64 {
		t.Errorf("layered count = %v, want 64", out.Rows.Value(0, 0))
	}
	// Query-time predicates stack again.
	out, err = ex.Exec("SELECT COUNT(*) FROM V2 WHERE y = 0")
	if err != nil || out.Rows.Value(0, 0) != 8 {
		t.Errorf("double-layered count = %v, want 8 (err %v)", out.Rows.Value(0, 0), err)
	}
	// Deriving from a missing view fails.
	if _, err := ex.Exec("CREATE VIEW V9 AS SELECT * FROM NoView"); err == nil {
		t.Error("derivation from unknown view accepted")
	}
	// Contradictory layered predicates fail at definition time.
	if _, err := ex.Exec("CREATE VIEW V3 AS SELECT * FROM V2 WHERE x BETWEEN 9 AND 10"); err == nil {
		t.Error("contradictory layered restriction accepted")
	}
}

func TestNeededAttrs(t *testing.T) {
	parse := func(src string) *query.Select {
		st, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*query.Select)
	}
	classify := func(s *query.Select) (bool, []string, []query.SelectItem) {
		star, plain, aggs, err := classifyItems(s)
		if err != nil {
			t.Fatal(err)
		}
		return star, plain, aggs
	}
	// SELECT * keeps everything.
	s := parse("SELECT * FROM V")
	star, plain, aggs := classify(s)
	if got := neededAttrs(star, plain, aggs, s); got != nil {
		t.Errorf("star needed = %v, want nil", got)
	}
	// Aggregation: agg attrs + group by + having, deduplicated; COUNT(*)
	// contributes nothing.
	s = parse("SELECT z, AVG(wp), COUNT(*) FROM V GROUP BY z HAVING MAX(wp) > 0.5")
	star, plain, aggs = classify(s)
	got := neededAttrs(star, plain, aggs, s)
	want := map[string]bool{"z": true, "wp": true}
	if len(got) != len(want) {
		t.Fatalf("needed = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected needed attr %q", n)
		}
	}
	// Non-aggregate ORDER BY columns are needed.
	s = parse("SELECT wp FROM V ORDER BY wp DESC")
	star, plain, aggs = classify(s)
	got = neededAttrs(star, plain, aggs, s)
	if len(got) != 1 || got[0] != "wp" {
		t.Errorf("needed = %v", got)
	}
}

// TestJoinOutputsTheDemand pins what a lowered join outputs to what its
// statement reads, on the benchmark's warm_join and ingest_mix statement
// shapes over its seven-column view (colenc and row-major wire), for both
// engines: no column for COUNT(*), the named columns in join-result order
// for a narrow SELECT, every column for SELECT *. The fetch is unchanged:
// the demand plus the join keys, or every column. Each plan, run twice
// in shared mode (the second run gathers IJ's cached pairs), returns the
// materialized reference's rows, which join at full fetched width.
func TestJoinOutputsTheDemand(t *testing.T) {
	all := []string{"x", "y", "z", "oilp", "soil", "wp", "swat"}
	cases := []struct {
		sql        string
		out, fetch []string // fetch nil: every column
	}{
		{"SELECT COUNT(*) FROM V1", []string{}, nil},
		{"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x", []string{"x", "wp"}, []string{"x", "wp", "y", "z"}},
		{"SELECT x, AVG(wp) FROM V1 WHERE x < 4 GROUP BY x ORDER BY x", []string{"x", "wp"}, []string{"x", "wp", "y", "z"}},
		{"SELECT wp, oilp FROM V1 WHERE z = 1", []string{"oilp", "wp"}, []string{"wp", "oilp", "x", "y", "z"}},
		{"SELECT x, y, COUNT(*), SUM(oilp) FROM V1 GROUP BY x, y ORDER BY x, y", []string{"x", "y", "oilp"}, []string{"x", "y", "oilp", "z"}},
		{"SELECT * FROM V1 WHERE x BETWEEN 0 AND 3", all, nil},
		{"SELECT * FROM V1 ORDER BY wp DESC, x, y, z LIMIT 100", all, nil},
	}
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 2),
		StorageNodes: 2, Seed: 9,
		LeftMeasures: []string{"oilp", "soil"}, RightMeasures: []string{"wp", "swat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range []string{"colenc", "rowmajor"} {
		for _, force := range []string{"ij", "gh"} {
			cl, err := cluster.New(cluster.Config{
				StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20, Wire: wire,
			}, ds.Catalog, ds.Stores)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(cl)
			ex.Planner.AlphaBuild, ex.Planner.AlphaLookup, ex.Planner.Force = 80e-9, 40e-9, force
			if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				what := fmt.Sprintf("%s [%s, %s]", c.sql, wire, force)
				// The reference runs first: an exclusive run empties the
				// caches the second shared run gathers from.
				ref := runDiffLeg(t, ex, c.sql, true, 0, 0)
				for run := 0; run < 2; run++ {
					l, err := ex.Lower(c.sql)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if got := l.Join.Schema().Names(); !slices.Equal(got, c.out) {
						t.Fatalf("%s: join outputs %v, want %v", what, got, c.out)
					}
					if got := l.Join.In.Project; !slices.Equal(got, c.fetch) || (got == nil) != (c.fetch == nil) {
						t.Fatalf("%s: join fetches %v, want %v", what, got, c.fetch)
					}
					l.Join.In.Req.Shared = true
					got, err := ex.ExecLowered(context.Background(), l)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					diffCompare(t, c.sql, fmt.Sprintf("%s, run %d vs materialized", what, run), got, ref, true)
					if j := got.Result.Join; force == "ij" && run == 1 && !strings.Contains(c.sql, "LIMIT") && j.TuplesBuilt+j.TuplesProbed != 0 {
						t.Fatalf("%s: the warm run built %d and probed %d, want a gather of every edge", what, j.TuplesBuilt, j.TuplesProbed)
					}
				}
			}
		}
	}
}
