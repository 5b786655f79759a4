package planner

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/dds"
	"sciview/internal/metadata"
	"sciview/internal/query"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// groupSpecials are the GROUP BY values that fall into one group under
// ORDER BY's rule: the two zeros, and two NaN payloads.
var groupSpecials = []float32{
	0, math.Float32frombits(1 << 31),
	math.Float32frombits(0x7FC00000), math.Float32frombits(0x7FC00001),
	1,
}

// handJoinTables stores T1(x, y, z, measures[0]) and T2(x, y, z,
// measures[1]) as eight row-major chunks each, alternating two storage
// nodes: chunk c holds the cells of the box [lo, hi) that box(c) returns,
// and value(i, x, y, z) is table i's measure of a cell.
func handJoinTables(t *testing.T, measures [2]string, box func(c int) (lo, hi [3]int),
	value func(i, x, y, z int) float32) (*metadata.Catalog, []simio.Store) {
	t.Helper()
	cat := metadata.NewCatalog()
	stores := []simio.Store{simio.NewMemStore(), simio.NewMemStore()}
	ex, err := chunk.Lookup("rowmajor")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"T1", "T2"} {
		schema := tuple.NewSchema(
			tuple.Attr{Name: "x", Kind: tuple.Coord}, tuple.Attr{Name: "y", Kind: tuple.Coord},
			tuple.Attr{Name: "z", Kind: tuple.Coord}, tuple.Attr{Name: measures[i], Kind: tuple.Measure})
		def, err := cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 8; c++ {
			lo, hi := box(c)
			st := tuple.NewSubTable(tuple.ID{Table: def.ID, Chunk: int32(c)}, schema, 0)
			for z := lo[2]; z < hi[2]; z++ {
				for y := lo[1]; y < hi[1]; y++ {
					for x := lo[0]; x < hi[0]; x++ {
						st.AppendRow(float32(x), float32(y), float32(z), value(i, x, y, z))
					}
				}
			}
			data, err := ex.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			node := c % len(stores)
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
	}
	return cat, stores
}

// TestGroupByNegZeroNaN pins GROUP BY's key rule, which is ORDER BY's
// (tuple.KeyWord): -0 and +0 are one group, every NaN is one group, the
// groups come out in ascending key order with NaN last, and each group's
// key is emitted as its canonical value (+0; NaN 0x7FC00000). The rows are
// the same from dds.Partial alone, and through a join under either engine
// materialized, streaming in memory and streaming spilled at two budgets.
func TestGroupByNegZeroNaN(t *testing.T) {
	// 4096 rows with g = groupSpecials[(x+y) % 5]: residues 0 and 1 are
	// the zeros, 2 and 3 the NaNs, 4 the ones.
	counts := make([]int, len(groupSpecials))
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			counts[(x+y)%len(groupSpecials)]++
		}
	}
	want := [][3]float32{
		{0, float32(counts[0] + counts[1]), float32(counts[0] + counts[1])},
		{1, float32(counts[4]), float32(counts[4])},
		{math.Float32frombits(0x7FC00000), float32(counts[2] + counts[3]), float32(counts[2] + counts[3])},
	}
	check := func(leg string, st *tuple.SubTable) {
		t.Helper()
		if st.NumRows() != len(want) {
			t.Fatalf("%s: %d groups, want %d", leg, st.NumRows(), len(want))
		}
		for r, w := range want {
			for c := range w {
				if got := st.Value(r, c); math.Float32bits(got) != math.Float32bits(w[c]) {
					t.Fatalf("%s: row %d col %d = %v (%#x), want %v (%#x)",
						leg, r, c, got, math.Float32bits(got), w[c], math.Float32bits(w[c]))
				}
			}
		}
	}

	// The accumulator itself, repeatedly: the group order must not depend
	// on map iteration.
	schema := tuple.NewSchema(tuple.Attr{Name: "g", Kind: tuple.Measure}, tuple.Attr{Name: "v", Kind: tuple.Measure})
	in := tuple.NewSubTable(tuple.ID{}, schema, 0)
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			in.AppendRow(groupSpecials[(x+y)%len(groupSpecials)], 1)
		}
	}
	items := []query.SelectItem{{Agg: query.AggCount, Attr: "*"}, {Agg: query.AggSum, Attr: "v"}}
	for i := 0; i < 50; i++ {
		p, err := dds.NewPartial(schema, items, []string{"g"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Fold(in); err != nil {
			t.Fatal(err)
		}
		out, err := p.Finalize(nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("partial #%d", i), out)
	}

	const sql = "SELECT g, COUNT(*), SUM(v) FROM V GROUP BY g"
	// T1(x, y, z, g) and T2(x, y, z, v) over a 64×64×1 grid in eight
	// x-slab chunks; g cycles through groupSpecials, v is 1.
	cat, stores := handJoinTables(t, [2]string{"g", "v"},
		func(c int) (lo, hi [3]int) { return [3]int{8 * c, 0, 0}, [3]int{8*c + 8, 64, 1} },
		func(i, x, y, _ int) float32 {
			if i == 1 {
				return 1
			}
			return groupSpecials[(x+y)%len(groupSpecials)]
		})
	for _, force := range []string{"ij", "gh"} {
		cl, err := cluster.New(cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 16 << 20}, cat, stores)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cl)
		ex.Planner.Force = force
		if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 16 << 10, 1 << 10} {
			for _, mat := range []bool{true, false} {
				leg := fmt.Sprintf("%s budget=%d materialize=%v", force, budget, mat)
				ex.MemBudget, ex.Materialize = budget, mat
				out, err := ex.Exec(sql)
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				check(leg, out.Rows)
				if mat || budget == 0 {
					continue
				}
				spilled := false
				for _, st := range out.Result.Operators {
					spilled = spilled || (strings.HasPrefix(st.Op, "Aggregate") && st.SpillBytes > 0)
				}
				if !spilled {
					t.Errorf("%s: the aggregate did not spill; operators %+v", leg, out.Result.Operators)
				}
			}
		}
		ex.MemBudget, ex.Materialize = 0, false
	}
}
