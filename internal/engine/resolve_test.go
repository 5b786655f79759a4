package engine_test

import (
	"context"
	"reflect"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/congraph"
	"sciview/internal/engine"
	"sciview/internal/ingest"
	"sciview/internal/leakcheck"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

func TestResolve(t *testing.T) {
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 2), 2, 2)
	cat := cl.Catalog

	t.Run("projection keeps join keys", func(t *testing.T) {
		req := fullJoinReq(false)
		req.Project = []string{"wp"}
		in, err := engine.Resolve(cat, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"wp", "x", "y", "z"}; !reflect.DeepEqual(in.Project, want) {
			t.Errorf("pushdown list = %v, want %v", in.Project, want)
		}
		if got, want := in.LeftSchema.Names(), []string{"x", "y", "z"}; !reflect.DeepEqual(got, want) {
			t.Errorf("left schema = %v, want %v", got, want)
		}
		if got, want := in.RightSchema.Names(), []string{"x", "y", "z", "wp"}; !reflect.DeepEqual(got, want) {
			t.Errorf("right schema = %v, want %v", got, want)
		}
		// The fetch keeps the join keys; the output is the demand alone.
		if got, want := in.OutSchema.Names(), []string{"wp"}; !reflect.DeepEqual(got, want) {
			t.Errorf("output schema = %v, want %v", got, want)
		}
		if len(in.LeftDescs) != len(cat.Chunks(ds.Left.ID)) || len(in.RightDescs) != len(cat.Chunks(ds.Right.ID)) {
			t.Errorf("full range resolved %d × %d chunks", len(in.LeftDescs), len(in.RightDescs))
		}
	})

	t.Run("range restricts each side to its own attributes", func(t *testing.T) {
		req := fullJoinReq(false)
		req.Filter = metadata.Range{Attrs: []string{"x", "wp"}, Lo: []float64{0, 0}, Hi: []float64{3, 1}}
		in, err := engine.Resolve(cat, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.LeftFilter.Attrs; !reflect.DeepEqual(got, []string{"x"}) {
			t.Errorf("left filter on %v, want [x]: wp is not a T1 attribute", got)
		}
		if got := in.RightFilter.Attrs; !reflect.DeepEqual(got, []string{"x", "wp"}) {
			t.Errorf("right filter on %v, want [x wp]", got)
		}
		if 2*len(in.LeftDescs) != len(cat.Chunks(ds.Left.ID)) {
			t.Errorf("x ∈ [0,3] kept %d of %d left chunks, want half", len(in.LeftDescs), len(cat.Chunks(ds.Left.ID)))
		}
	})

	t.Run("version windows inherit AsOf", func(t *testing.T) {
		req := fullJoinReq(false)
		req.AsOf = 5
		req.RightVersions = metadata.VersionWindow{Since: 1, Until: 3}
		in, err := engine.Resolve(cat, req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := in.LeftFilter.Versions, (metadata.VersionWindow{Until: 5}); got != want {
			t.Errorf("left window = %+v, want %+v", got, want)
		}
		if got, want := in.RightFilter.Versions, (metadata.VersionWindow{Since: 1, Until: 3}); got != want {
			t.Errorf("right window = %+v, want %+v", got, want)
		}
		if len(in.RightDescs) != 0 {
			t.Errorf("window (1,3] resolved %d base chunks, want none", len(in.RightDescs))
		}
	})

	t.Run("AsOf 0 pins to the current version", func(t *testing.T) {
		in, err := engine.Resolve(cat, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		v := cat.Version()
		if v == 0 || in.Req.AsOf != v || in.LeftFilter.Versions.Until != v || in.RightFilter.Versions.Until != v {
			t.Errorf("catalog at version %d: AsOf = %d, windows %+v / %+v",
				v, in.Req.AsOf, in.LeftFilter.Versions, in.RightFilter.Versions)
		}
	})

	t.Run("errors", func(t *testing.T) {
		_, unknown := cat.Table("nope")
		badRange := metadata.Range{Attrs: []string{"x"}, Lo: []float64{3}, Hi: []float64{1}}
		cases := []struct {
			name string
			edit func(*engine.Request)
			want string
		}{
			{"no left table", func(r *engine.Request) { r.LeftTable = "" }, "engine: both table names are required"},
			{"no join attributes", func(r *engine.Request) { r.JoinAttrs = nil }, "engine: no join attributes"},
			{"unknown table", func(r *engine.Request) { r.RightTable = "nope" }, unknown.Error()},
			{"invalid range", func(r *engine.Request) { r.Filter = badRange }, badRange.Validate().Error()},
			{"range arity", func(r *engine.Request) {
				r.Filter = metadata.Range{Attrs: []string{"x"}, Lo: []float64{0, 1}, Hi: []float64{1}}
			}, "metadata: range arity mismatch (1 attrs, 2 lo, 1 hi)"},
		}
		for _, tc := range cases {
			req := fullJoinReq(false)
			tc.edit(&req)
			if _, err := engine.Resolve(cat, req); err == nil || err.Error() != tc.want {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}

		// A join attribute the chunks do not carry is the join index's
		// finding (and, on a direct GH run, the scanner's): Resolve passes,
		// Graph reports exactly what congraph.Build reports.
		req := fullJoinReq(false)
		req.JoinAttrs = []string{"x", "depth"}
		in, err := engine.Resolve(cat, req)
		if err != nil {
			t.Fatal(err)
		}
		_, want := congraph.Build(in.LeftDescs, in.RightDescs, req.JoinAttrs)
		if _, err := in.Graph(); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Graph err = %v, want %v", err, want)
		}
		for _, e := range engines() {
			if _, err := e.Run(context.Background(), cl, in); err == nil {
				t.Errorf("%s joined on a missing attribute", e.Name())
			}
		}
	})
}

// TestEnginesConsumeTheirInputs: the chunk sets an engine joins are the
// ones it is handed. Dropping one right chunk from resolved inputs must
// cost exactly that chunk's matches — in a full join every right row has
// one partner — which fails for an engine that goes back to the catalog.
func TestEnginesConsumeTheirInputs(t *testing.T) {
	grid := partition.D(16, 16, 8)
	_, cl := genCluster(t, grid, partition.D(8, 8, 8), partition.D(4, 4, 8), 3, 2)
	for _, e := range engines() {
		in, err := engine.Resolve(cl.Catalog, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		last := len(in.RightDescs) - 1
		dropped := in.RightDescs[last]
		in.RightDescs = in.RightDescs[:last]
		res, err := e.Run(context.Background(), cl, in)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if want := grid.Cells() - int64(dropped.Rows); res.Tuples != want {
			t.Errorf("%s: %d tuples without right chunk %v (%d rows), want %d",
				e.Name(), res.Tuples, dropped.ID(), dropped.Rows, want)
		}
	}
}

// TestResolvedRunIgnoresLaterAppend: inputs resolved with AsOf == 0 are
// pinned to the version current at Resolve, so a batch committed before
// the run starts is invisible to it and visible to the next resolution.
func TestResolvedRunIgnoresLaterAppend(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := oilres.Config{
		Grid:     partition.D(8, 8, 12),
		LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 7,
	}
	for _, e := range engines() {
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
		base := ds.Config.Grid.Cells()

		in, err := engine.Resolve(cl.Catalog, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Append(ingest.FromStepChunks(0, steps[0])); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), cl, in)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Tuples != base {
			t.Errorf("%s: run resolved before the append joined %d tuples, want the base %d", e.Name(), res.Tuples, base)
		}
		after, err := engine.RunRequest(context.Background(), e, cl, fullJoinReq(false))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if want := cfg.Grid.Cells(); after.Tuples != want {
			t.Errorf("%s: run resolved after the append joined %d tuples, want %d", e.Name(), after.Tuples, want)
		}
	}
}
