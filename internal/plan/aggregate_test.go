package plan

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sciview/internal/dds"
	"sciview/internal/engine"
	"sciview/internal/query"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// aggSchema is three group columns and two measures.
var aggSchema = tuple.NewSchema(
	tuple.Attr{Name: "a", Kind: tuple.Coord}, tuple.Attr{Name: "b", Kind: tuple.Coord},
	tuple.Attr{Name: "c", Kind: tuple.Coord}, tuple.Attr{Name: "v", Kind: tuple.Measure},
	tuple.Attr{Name: "w", Kind: tuple.Measure},
)

// runAggregate drives Aggregate over the batches at the given spill budget
// (0 = none) and returns the emitted rows, the operator's stats and the
// scratch files alive after Close.
func runAggregate(tb testing.TB, node *AggregateNode, batches []*tuple.SubTable, budget int64) ([][]uint32, engine.OpStat, []string) {
	tb.Helper()
	store := simio.NewMemStore()
	node.SpillBudget, node.SpillDisk, node.SpillOwner = 0, nil, ""
	if budget > 0 {
		node.SpillBudget, node.SpillDisk, node.SpillOwner = budget, simio.NewDisk(store, 0, 0), "test"
	}
	op := &aggregateOp{node: node, child: &stubOp{batches: batches}}
	if err := op.Open(context.Background()); err != nil {
		tb.Fatal(err)
	}
	var got [][]uint32
	for {
		st, err := op.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		got = append(got, rowBits([]*tuple.SubTable{st})...)
	}
	if err := op.Close(); err != nil {
		tb.Fatal(err)
	}
	live, err := store.List()
	if err != nil {
		tb.Fatal(err)
	}
	return got, *op.Stat(), live
}

// FuzzAggregateKernel differentially checks Aggregate against dds.Aggregate
// over the concatenated batches: batches of 0 to 64 rows, each labelled
// with a random part in its ID, whose values mix the sortSpecials with
// ±2^60 and 1 (so a sum depends on the order its rows fold in), zero to
// three GROUP BY columns, every aggregate, an optional HAVING, and no
// budget, a tiny one or one a byte either side of k groups' charge. The
// rows must match bit for bit, no scratch file may outlive Close, and a
// spilling run must never peak above the unbudgeted one.
func FuzzAggregateKernel(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0x01), uint8(0))
	f.Add(int64(2), uint16(300), uint8(0x06), uint8(1))
	f.Add(int64(3), uint16(64), uint8(0x0b), uint8(2))
	f.Add(int64(4), uint16(257), uint8(0x0f), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, budgetSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size % 512)
		values := append([]float32{1, 1 << 60, -(1 << 60), -1, 0.5}, sortSpecials...)
		var batches []*tuple.SubTable
		row := make([]float32, aggSchema.NumAttrs())
		for r := 0; r < n || len(batches) == 0; {
			st := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(rng.Intn(4))}, aggSchema, 64)
			for m := min(rng.Intn(65), n-r); m > 0; m-- {
				for c := range row {
					row[c] = values[rng.Intn(len(values))]
				}
				st.AppendRow(row...)
				r++
			}
			batches = append(batches, st)
		}
		// shape: bits 0-1 the GROUP BY column count, bit 2 HAVING.
		var groupBy []string
		for _, c := range rng.Perm(3)[:shape&3%4] {
			groupBy = append(groupBy, aggSchema.Attrs[c].Name)
		}
		aggs := []query.Agg{query.AggAvg, query.AggSum, query.AggMin, query.AggMax, query.AggCount}
		items := []query.SelectItem{{Attr: "*", Agg: query.AggCount}}
		for _, agg := range aggs {
			items = append(items, query.SelectItem{Attr: []string{"v", "w"}[rng.Intn(2)], Agg: agg})
		}
		var having *query.Having
		if shape&4 != 0 {
			having = &query.Having{Agg: aggs[rng.Intn(len(aggs))], Attr: []string{"v", "*"}[rng.Intn(2)],
				Op: []string{"=", "<", "<=", ">", ">="}[rng.Intn(5)], Val: float64(rng.Intn(5) - 1)}
		}
		// An input estimate above every budget: the budget alone decides
		// whether, and how deep, the fold spills.
		node, err := NewAggregate(&ScanNode{schema: aggSchema, estRows: 1 << 16}, items, groupBy, having)
		if err != nil {
			t.Fatal(err)
		}
		groupBytes := int64(node.schema.RecordSize() + aggGroupOver)
		k := 1 + int64(rng.Intn(n+1))
		budget := []int64{0, 1 + int64(rng.Intn(256)), k*groupBytes - 1, k*groupBytes + 1}[budgetSel%4]
		what := fmt.Sprintf("seed=%d n=%d group by %v having %+v budget=%d", seed, n, groupBy, having, budget)

		want, err := dds.Aggregate(batches, items, groupBy, having)
		if err != nil {
			t.Fatal(err)
		}
		ref, refStat, _ := runAggregate(t, node, batches, 0)
		sameRows(t, what+" (unbudgeted)", ref, rowBits([]*tuple.SubTable{want}))
		got, stat, live := runAggregate(t, node, batches, budget)
		sameRows(t, what, got, ref)
		if len(live) > 0 {
			t.Fatalf("%s: scratch files left after Close: %v", what, live)
		}
		if stat.SpillParts > 0 && stat.PeakBytes > refStat.PeakBytes {
			t.Fatalf("%s: spilling run peaks at %d B, above the unbudgeted %d B", what, stat.PeakBytes, refStat.PeakBytes)
		}
	})
}
