package service

import (
	"context"
	"strings"
	"testing"

	"sciview/internal/metadata"
	"sciview/internal/planner"
)

// TestEmptyRangeIsAnEmptyResult: a view statement whose range selects no
// chunks used to fail with "planner: no chunks in range"; the same
// predicate on a table returned an empty result. With resolved inputs an
// empty side is a fact, not an error: the models are skipped, the chosen
// engine runs zero units, and SQL (streaming and the Materialize oracle),
// EXPLAIN and a raw Submit all return what an empty scan returns.
func TestEmptyRangeIsAnEmptyResult(t *testing.T) {
	for _, force := range []string{"ij", "gh"} {
		cl := makeCluster(t, 2, 2, 32<<20, 0)
		svc := newService(cl, Config{Force: force})
		defer svc.Close()
		ex, ref := svc.Executor(), svc.Executor()
		ref.Materialize = true
		for _, e := range []*planner.Executor{ex, ref} {
			if _, err := e.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
				t.Fatal(err)
			}
		}

		for _, q := range []string{
			"SELECT COUNT(*) FROM %s WHERE x > 1000",
			"SELECT x, y, z FROM %s WHERE x > 1000",
			"SELECT x, COUNT(*) FROM %s WHERE x > 1000 GROUP BY x ORDER BY x LIMIT 3",
			"SELECT x FROM %s WHERE x > 1000 ORDER BY x DESC LIMIT 5",
		} {
			onView, onTable := strings.ReplaceAll(q, "%s", "V"), strings.ReplaceAll(q, "%s", "T1")
			resp, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: onView})
			if err != nil {
				t.Fatalf("%s: %s: %v", force, onView, err)
			}
			oracle, err := ref.Exec(onView)
			if err != nil {
				t.Fatalf("%s: oracle: %s: %v", force, onView, err)
			}
			scan, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: onTable})
			if err != nil {
				t.Fatalf("%s: %s: %v", force, onTable, err)
			}
			assertSameTable(t, onView+" vs oracle", oracle.Rows, resp.Rows)
			assertSameTable(t, onView+" vs table scan", scan.Rows, resp.Rows)
			if resp.Decision.Chosen != force || resp.Result.UnitsTotal != 0 || resp.Result.Tuples != 0 {
				t.Errorf("%s: %s: chose %s, ran %d units, %d tuples", force, onView,
					resp.Decision.Chosen, resp.Result.UnitsTotal, resp.Result.Tuples)
			}
		}
		if resp, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: "SELECT * FROM V WHERE x > 1000"}); err != nil {
			t.Errorf("%s: SELECT *: %v", force, err)
		} else if resp.Rows.NumRows() != 0 || resp.Rows.Schema.NumAttrs() != 5 {
			t.Errorf("%s: SELECT * returned %d rows of %v", force, resp.Rows.NumRows(), resp.Rows.Schema.Names())
		}

		out, err := ex.Exec("EXPLAIN SELECT COUNT(*) FROM V WHERE x > 1000")
		if err != nil {
			t.Fatalf("%s: EXPLAIN: %v", force, err)
		}
		if !strings.Contains(out.Explain, "Join["+force+"]") || strings.Contains(out.Explain, "fetch:") {
			t.Errorf("%s: EXPLAIN of an empty range:\n%s", force, out.Explain)
		}

		req := testReq()
		req.Filter = metadata.Range{Attrs: []string{"x"}, Lo: []float64{1000}, Hi: []float64{2000}}
		raw, err := svc.Submit(context.Background(), Query{Req: req})
		if err != nil {
			t.Fatalf("%s: raw Submit: %v", force, err)
		}
		if raw.Result.Engine != force || raw.Result.Tuples != 0 || raw.Result.UnitsTotal != 0 ||
			raw.Decision.PredictIJ.Total != 0 || raw.Decision.PredictGH.Total != 0 {
			t.Errorf("%s: raw Submit over an empty range: engine %s, %d tuples, %d units, predictions %v / %v",
				force, raw.Result.Engine, raw.Result.Tuples, raw.Result.UnitsTotal,
				raw.Decision.PredictIJ.Total, raw.Decision.PredictGH.Total)
		}
		if st := svc.Stats(); st.Failed != 0 {
			t.Errorf("%s: %d statements failed", force, st.Failed)
		}
	}
}
