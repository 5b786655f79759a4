package dds

import (
	"context"
	"math"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
		StorageNodes: 2, Seed: 3,
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
	return cl
}

func mustParse(t *testing.T, src string) *query.CreateView {
	t.Helper()
	st, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*query.CreateView)
}

func TestFromCreateValidates(t *testing.T) {
	cl := testCluster(t)
	v, err := FromCreate(cl.Catalog, mustParse(t, "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "V1" || len(v.JoinAttrs) != 3 {
		t.Errorf("view = %+v", v)
	}
	if _, err := FromCreate(cl.Catalog, mustParse(t, "CREATE VIEW V AS SELECT * FROM T9 JOIN T2 ON (x)")); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := FromCreate(cl.Catalog, mustParse(t, "CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (wp)")); err == nil {
		t.Error("join attr missing from left table accepted")
	}
}

func TestViewSchemaAndRequest(t *testing.T) {
	cl := testCluster(t)
	v, err := FromCreate(cl.Catalog, mustParse(t,
		"CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z) WHERE x BETWEEN 0 AND 3"))
	if err != nil {
		t.Fatal(err)
	}
	schema, err := v.Schema(cl.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "z", "oilp", "wp"}
	names := schema.Names()
	if len(names) != len(want) {
		t.Fatalf("schema = %v", names)
	}
	// Base predicate merges with query predicate.
	req, err := v.Request([]query.Pred{{Attr: "x", Lo: 2, Hi: 10}, {Attr: "y", Lo: 0, Hi: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Filter.Attrs) != 2 {
		t.Fatalf("filter = %+v", req.Filter)
	}
	if req.Filter.Lo[0] != 2 || req.Filter.Hi[0] != 3 {
		t.Errorf("merged x interval = [%g,%g]", req.Filter.Lo[0], req.Filter.Hi[0])
	}
	// Contradiction detected.
	if _, err := v.Request([]query.Pred{{Attr: "x", Lo: 9, Hi: 10}}, false); err == nil {
		t.Error("contradictory merge accepted")
	}
}

func TestViewExecutesOnBothEngines(t *testing.T) {
	cl := testCluster(t)
	v, _ := FromCreate(cl.Catalog, mustParse(t, "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"))
	req, err := v.Request([]query.Pred{{Attr: "z", Lo: 0, Hi: 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []interface {
		Run(*cluster.Cluster, interface{}) (interface{}, error)
	}{} {
		_ = e // placeholder to keep imports honest
	}
	resIJ, err := engine.RunRequest(context.Background(), ij.New(), cl, req)
	if err != nil {
		t.Fatal(err)
	}
	resGH, err := engine.RunRequest(context.Background(), gh.New(), cl, req)
	if err != nil {
		t.Fatal(err)
	}
	if resIJ.Tuples != 64 || resGH.Tuples != 64 {
		t.Errorf("z=0 slice: ij=%d gh=%d want 64", resIJ.Tuples, resGH.Tuples)
	}
}

func TestScanTable(t *testing.T) {
	cl := testCluster(t)
	st, err := ScanTable(cl, "T1", []query.Pred{{Attr: "x", Lo: 0, Hi: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 4*8*4 {
		t.Errorf("rows = %d, want 128", st.NumRows())
	}
	// Projection.
	p, err := ScanTable(cl, "T1", nil, []string{"oilp", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema.NumAttrs() != 2 || p.NumRows() != 8*8*4 {
		t.Errorf("projected: attrs=%d rows=%d", p.Schema.NumAttrs(), p.NumRows())
	}
	// Unknown attribute in predicate.
	if _, err := ScanTable(cl, "T1", []query.Pred{{Attr: "wp", Lo: 0, Hi: 1}}, nil); err == nil {
		t.Error("unknown predicate attribute accepted")
	}
	if _, err := ScanTable(cl, "nope", nil, nil); err == nil {
		t.Error("unknown table accepted")
	}
}

func aggInput() *tuple.SubTable {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "g", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	st := tuple.NewSubTable(tuple.ID{}, schema, 0)
	// Group 0: v = 1,2,3; group 1: v = 10, 20.
	st.AppendRow(0, 1)
	st.AppendRow(0, 2)
	st.AppendRow(0, 3)
	st.AppendRow(1, 10)
	st.AppendRow(1, 20)
	return st
}

func TestAggregateGrouped(t *testing.T) {
	out, err := Aggregate([]*tuple.SubTable{aggInput()},
		[]query.SelectItem{
			{Attr: "v", Agg: query.AggAvg},
			{Attr: "v", Agg: query.AggSum},
			{Attr: "v", Agg: query.AggMin},
			{Attr: "v", Agg: query.AggMax},
			{Attr: "*", Agg: query.AggCount},
		},
		[]string{"g"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	names := out.Schema.Names()
	wantNames := []string{"g", "avg_v", "sum_v", "min_v", "max_v", "count"}
	for i, n := range wantNames {
		if names[i] != n {
			t.Errorf("col %d = %q, want %q", i, names[i], n)
		}
	}
	// Group 0.
	if out.Value(0, 0) != 0 || out.Value(0, 1) != 2 || out.Value(0, 2) != 6 ||
		out.Value(0, 3) != 1 || out.Value(0, 4) != 3 || out.Value(0, 5) != 3 {
		t.Errorf("group 0 = %v", out.Row(0, nil))
	}
	// Group 1.
	if out.Value(1, 1) != 15 || out.Value(1, 5) != 2 {
		t.Errorf("group 1 = %v", out.Row(1, nil))
	}
}

func TestAggregateGlobal(t *testing.T) {
	out, err := Aggregate([]*tuple.SubTable{aggInput()},
		[]query.SelectItem{{Attr: "v", Agg: query.AggSum}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Value(0, 0) != 36 {
		t.Errorf("global sum = %v (rows %d)", out.Value(0, 0), out.NumRows())
	}
}

func TestAggregateHaving(t *testing.T) {
	// "Find all reservoirs with average wp > 0.5" — here: groups with
	// AVG(v) > 5 keeps only group 1.
	out, err := Aggregate([]*tuple.SubTable{aggInput()},
		[]query.SelectItem{{Attr: "v", Agg: query.AggAvg}},
		[]string{"g"},
		&query.Having{Agg: query.AggAvg, Attr: "v", Op: ">", Val: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Value(0, 0) != 1 {
		t.Fatalf("having kept %d groups", out.NumRows())
	}
	if out.Value(0, 1) != 15 {
		t.Errorf("avg = %v", out.Value(0, 1))
	}
}

func TestAggregateMultipleInputs(t *testing.T) {
	a, b := aggInput(), aggInput()
	out, err := Aggregate([]*tuple.SubTable{a, nil, b},
		[]query.SelectItem{{Attr: "*", Agg: query.AggCount}}, []string{"g"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Value(0, 1) != 6 || out.Value(1, 1) != 4 {
		t.Errorf("counts = %v %v", out.Value(0, 1), out.Value(1, 1))
	}
}

func TestAggregateErrors(t *testing.T) {
	in := []*tuple.SubTable{aggInput()}
	if _, err := Aggregate(in, nil, nil, nil); err == nil {
		t.Error("no items accepted")
	}
	if _, err := Aggregate(in, []query.SelectItem{{Attr: "v"}}, nil, nil); err == nil {
		t.Error("non-aggregate item accepted")
	}
	if _, err := Aggregate(in, []query.SelectItem{{Attr: "zz", Agg: query.AggSum}}, nil, nil); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := Aggregate(in, []query.SelectItem{{Attr: "v", Agg: query.AggSum}}, []string{"zz"}, nil); err == nil {
		t.Error("unknown group-by accepted")
	}
	if _, err := Aggregate(nil, []query.SelectItem{{Attr: "v", Agg: query.AggSum}}, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Aggregate(in, []query.SelectItem{{Attr: "v", Agg: query.AggSum}}, nil,
		&query.Having{Agg: query.AggAvg, Attr: "zz", Op: ">", Val: 0}); err == nil {
		t.Error("unknown HAVING attribute accepted")
	}
	other := tuple.NewSubTable(tuple.ID{}, tuple.NewSchema(tuple.Attr{Name: "q", Kind: tuple.Coord}), 0)
	other.AppendRow(1)
	if _, err := Aggregate([]*tuple.SubTable{in[0], other},
		[]query.SelectItem{{Attr: "v", Agg: query.AggSum}}, nil, nil); err == nil {
		t.Error("mixed schemas accepted")
	}
}

func TestAggregateOverViewOutput(t *testing.T) {
	// Layer the aggregation DDS over the join DDS: average wp per z-plane.
	cl := testCluster(t)
	v, _ := FromCreate(cl.Catalog, mustParse(t, "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"))
	req, err := v.Request(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Aggregate(res.Collected,
		[]query.SelectItem{{Attr: "wp", Agg: query.AggAvg}, {Attr: "*", Agg: query.AggCount}},
		[]string{"z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Fatalf("z groups = %d, want 4", out.NumRows())
	}
	for r := 0; r < out.NumRows(); r++ {
		if out.Value(r, 2) != 64 {
			t.Errorf("z=%v count = %v, want 64", out.Value(r, 0), out.Value(r, 2))
		}
		avg := float64(out.Value(r, 1))
		if math.IsNaN(avg) || avg <= 0 || avg >= 1 {
			t.Errorf("z=%v avg wp = %v out of (0,1)", out.Value(r, 0), avg)
		}
	}
}

func benchAggInputs(parts, rowsPer int) []*tuple.SubTable {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "g", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	out := make([]*tuple.SubTable, parts)
	for p := range out {
		st := tuple.NewSubTable(tuple.ID{}, schema, rowsPer)
		for i := 0; i < rowsPer; i++ {
			st.AppendRow(float32(i%64), float32(i)/7)
		}
		out[p] = st
	}
	return out
}

func BenchmarkAggregateCentralized(b *testing.B) {
	inputs := benchAggInputs(4, 1<<15)
	items := []query.SelectItem{{Attr: "v", Agg: query.AggAvg}, {Attr: "*", Agg: query.AggCount}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(inputs, items, []string{"g"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
