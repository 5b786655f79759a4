package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/hashjoin"
	"sciview/internal/metadata"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// handTable stores the given chunks of rows as table name, alternating
// storage nodes, and returns all of its rows as one sub-table.
func handTable(t *testing.T, cat *metadata.Catalog, stores []simio.Store, name, measure string, chunks [][][4]float32) *tuple.SubTable {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord}, tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord}, tuple.Attr{Name: measure, Kind: tuple.Measure})
	def, err := cat.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := chunk.Lookup("rowmajor")
	if err != nil {
		t.Fatal(err)
	}
	all := tuple.NewSubTable(tuple.ID{Table: def.ID}, schema, 0)
	for i, rows := range chunks {
		st := tuple.NewSubTable(tuple.ID{Table: def.ID, Chunk: int32(i)}, schema, len(rows))
		for _, r := range rows {
			st.AppendRow(r[:]...)
			all.AppendRow(r[:]...)
		}
		data, err := ex.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		node := i % len(stores)
		object := fmt.Sprintf("%s/node%d.dat", name, node)
		offset, _ := stores[node].Size(object)
		if err := stores[node].Append(object, data); err != nil {
			t.Fatal(err)
		}
		b := st.Bounds()
		if _, err := cat.AddChunk(def.ID, &chunk.Desc{
			Object: object, Offset: offset, Size: int64(len(data)), Node: node, Format: "rowmajor",
			Attrs: schema.Attrs, Rows: st.NumRows(), Bounds: bbox.New(b.Lo, b.Hi),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

// TestJoinNegativeZeroKey runs both engines end to end — either wire, in
// memory and under a budget that spills every pair — over tables whose
// join keys include -0, +0 and NaN, against the nested-loop reference: the
// two zeros are one key (IJ probes them into one chain, GH's h1/h2 route
// them to one node and bucket), NaN matches nothing, and output values keep
// the bits they were stored with.
func TestJoinNegativeZeroKey(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	nan := float32(math.NaN())
	leftChunks := [][][4]float32{
		{{negZero, 0, 0, 1}, {0, negZero, 1, 2}, {1, 1, 1, 3}, {nan, 0, 0, 4}},
		{{0, 0, negZero, 5}, {2, 2, 2, 6}, {negZero, negZero, negZero, 7}},
	}
	rightChunks := [][][4]float32{
		{{0, 0, 0, 10}, {negZero, 0, 1, 20}, {nan, 0, 0, 30}},
		{{negZero, negZero, negZero, 40}, {1, 1, 1, 50}, {3, 3, 3, 60}, {0, 0, nan, 70}},
	}
	for i := 0; i < 48; i++ { // bulk, so the small budget really splits build sides
		v := float32(10 + i)
		leftChunks[i%2] = append(leftChunks[i%2], [4]float32{v, v, v, 100 + v})
		rightChunks[i%2] = append(rightChunks[i%2], [4]float32{v, v, v, 200 + v})
	}
	keys := []string{"x", "y", "z"}

	for _, wire := range []string{"rowmajor", "colenc"} {
		cat := metadata.NewCatalog()
		stores := []simio.Store{simio.NewMemStore(), simio.NewMemStore()}
		left := handTable(t, cat, stores, "T1", "oilp", leftChunks)
		right := handTable(t, cat, stores, "T2", "wp", rightChunks)
		ref, err := hashjoin.NestedLoop(left, right, keys)
		if err != nil {
			t.Fatal(err)
		}
		// (±0,±0,0|-0) ×: lefts 1, 5, 7 meet rights 10, 40 (6 rows); left 2
		// meets right 20; (1,1,1) once; the 48 bulk keys once each. NaN rows: none.
		if ref.NumRows() != 6+1+1+48 {
			t.Fatalf("reference has %d rows, want 56", ref.NumRows())
		}
		want := collectRows(t, &engine.Result{Collected: []*tuple.SubTable{ref}})

		for _, budget := range []int64{0, 256} {
			for _, e := range engines() {
				cl, err := cluster.New(cluster.Config{
					StorageNodes: 2, ComputeNodes: 2, CacheBytes: 1 << 20, Wire: wire,
				}, cat, stores)
				if err != nil {
					t.Fatal(err)
				}
				req := fullJoinReq(true)
				req.MemoryBudget = budget
				res, err := engine.RunRequest(context.Background(), e, cl, req)
				if err != nil {
					t.Fatalf("%s/%s/budget %d: %v", e.Name(), wire, budget, err)
				}
				got := collectRows(t, res)
				if len(got) != len(want) {
					t.Fatalf("%s/%s/budget %d: %d rows, want %d", e.Name(), wire, budget, len(got), len(want))
				}
				for i := range got {
					for c := range got[i] {
						if math.Float32bits(got[i][c]) != math.Float32bits(want[i][c]) {
							t.Fatalf("%s/%s/budget %d: row %d = %v, want %v (bit-exact)", e.Name(), wire, budget, i, got[i], want[i])
						}
					}
				}
				// GH spills its buckets regardless; for IJ any scratch traffic
				// is the out-of-core pair join.
				if budget > 0 && e.Name() == "ij" && res.Traffic.ScratchBytesWritten == 0 {
					t.Errorf("ij/%s/budget %d: nothing spilled: the budget did not force the out-of-core pair join", wire, budget)
				}
			}
		}
	}
}
