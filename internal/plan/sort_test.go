package plan

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/query"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// sortSchema is five key columns plus a unique payload that makes the
// order among ties visible.
var sortSchema = tuple.NewSchema(
	tuple.Attr{Name: "a", Kind: tuple.Measure}, tuple.Attr{Name: "b", Kind: tuple.Measure},
	tuple.Attr{Name: "c", Kind: tuple.Measure}, tuple.Attr{Name: "d", Kind: tuple.Measure},
	tuple.Attr{Name: "e", Kind: tuple.Measure}, tuple.Attr{Name: "id", Kind: tuple.Measure},
)

// sortSpecials are the values a float comparator gets wrong: NaNs of
// both signs and several payloads, both zeros, both infinities.
var sortSpecials = []float32{
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800123),
	float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)),
}

// sortInput returns n rows in batches of at most batch rows. Keys draw
// from four values, so every key column is mostly ties; with specials,
// about one key in seven is a NaN, a signed zero or an infinity.
func sortInput(seed int64, n, batch int, specials bool) []*tuple.SubTable {
	rng := rand.New(rand.NewSource(seed))
	var out []*tuple.SubTable
	row := make([]float32, sortSchema.NumAttrs())
	for r := 0; r < n; r++ {
		if r%batch == 0 {
			out = append(out, tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(len(out))}, sortSchema, batch))
		}
		for c := 0; c < 5; c++ {
			row[c] = float32(rng.Intn(4)) - 1.5
			if specials && rng.Intn(7) == 0 {
				row[c] = sortSpecials[rng.Intn(len(sortSpecials))]
			}
		}
		row[5] = float32(r)
		out[len(out)-1].AppendRow(row...)
	}
	return out
}

// rowBits flattens batches to one bit pattern per row, so comparisons
// see NaN payloads and the sign of zero.
func rowBits(batches []*tuple.SubTable) [][6]uint32 {
	var out [][6]uint32
	for _, st := range batches {
		for r := 0; r < st.NumRows(); r++ {
			var b [6]uint32
			for c := range b {
				b[c] = math.Float32bits(st.Value(r, c))
			}
			out = append(out, b)
		}
	}
	return out
}

// sortReference is the independent oracle: a stable sort on float
// comparisons under the documented rule (NaN above every number and equal
// to every NaN, -0 equal to +0), then the head.
func sortReference(batches []*tuple.SubTable, keys []query.OrderKey, limit int) [][6]uint32 {
	rows := rowBits(batches)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := sortSchema.Index(k.Attr)
			va, vb := math.Float32frombits(rows[i][c]), math.Float32frombits(rows[j][c])
			aNaN, bNaN := va != va, vb != vb
			if va == vb || (aNaN && bNaN) {
				continue
			}
			return (bNaN || (!aNaN && va < vb)) != k.Desc
		}
		return false
	})
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// runSort drives Sort (under Limit when limit >= 0) over the batches at
// the given spill budget (0 = none) and returns the emitted rows, the
// Sort's stats and the scratch files alive after Close.
func runSort(tb testing.TB, batches []*tuple.SubTable, keys []query.OrderKey, limit int, budget int64) ([][6]uint32, engine.OpStat, []string) {
	tb.Helper()
	var got [][6]uint32
	stat, live := driveSort(tb, batches, keys, limit, budget, func(st *tuple.SubTable) {
		got = append(got, rowBits([]*tuple.SubTable{st})...)
	})
	return got, stat, live
}

// driveSort is runSort handing each emitted batch to sink.
func driveSort(tb testing.TB, batches []*tuple.SubTable, keys []query.OrderKey, limit int, budget int64, sink func(*tuple.SubTable)) (engine.OpStat, []string) {
	tb.Helper()
	store := simio.NewMemStore()
	node, err := NewSort(&ScanNode{schema: batches[0].Schema}, keys)
	if err != nil {
		tb.Fatal(err)
	}
	if budget > 0 {
		node.SpillBudget, node.SpillDisk, node.SpillOwner = budget, simio.NewDisk(store, 0, 0), "test"
	}
	sorter := &sortOp{node: node, child: &stubOp{batches: batches}}
	var root Operator = sorter
	if limit >= 0 {
		root = &limitOp{node: NewLimit(node, limit), remaining: limit, child: sorter}
	}
	if err := root.Open(context.Background()); err != nil {
		tb.Fatal(err)
	}
	for {
		st, err := root.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		sink(st)
	}
	if err := root.Close(); err != nil {
		tb.Fatal(err)
	}
	live, err := store.List()
	if err != nil {
		tb.Fatal(err)
	}
	return *sorter.Stat(), live
}

func orderKeys(spec ...string) []query.OrderKey {
	var keys []query.OrderKey
	for _, s := range spec {
		k := query.OrderKey{Attr: s}
		if s[0] == '-' {
			k = query.OrderKey{Attr: s[1:], Desc: true}
		}
		keys = append(keys, k)
	}
	return keys
}

func sameRows(tb testing.TB, what string, got, want [][6]uint32) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	diff, first := 0, -1
	for i := range got {
		if got[i] != want[i] {
			if diff++; first < 0 {
				first = i
			}
		}
	}
	if diff > 0 {
		tb.Fatalf("%s: %d of %d positions differ, first at row %d: %x, want %x",
			what, diff, len(got), first, got[first], want[first])
	}
}

// TestKeyWord: the key encoding is monotone in the value, folds -0 onto
// +0 and maps every NaN to one word above +Inf.
func TestKeyWord(t *testing.T) {
	inf := float32(math.Inf(1))
	ascending := []float32{-inf, -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32, 0,
		math.SmallestNonzeroFloat32, 1, math.MaxFloat32, inf, sortSpecials[0]}
	for i := 1; i < len(ascending); i++ {
		if a, b := tuple.KeyWord(ascending[i-1]), tuple.KeyWord(ascending[i]); a >= b {
			t.Errorf("KeyWord(%v) = %#x, not below KeyWord(%v) = %#x", ascending[i-1], a, ascending[i], b)
		}
	}
	if tuple.KeyWord(sortSpecials[3]) != tuple.KeyWord(0) {
		t.Error("-0 and +0 encode differently")
	}
	for _, nan := range sortSpecials[:3] {
		if tuple.KeyWord(nan) != ^uint32(0) {
			t.Errorf("NaN %#x encodes as %#x", math.Float32bits(nan), tuple.KeyWord(nan))
		}
	}
}

// TestSortNaNKeysSameAtAnyBudget is the regression for "byte-identical at
// any budget" once a key is NaN: the float comparator was not a strict
// weak order there, so the in-memory stable sort and the run merge
// produced different permutations of the same input.
func TestSortNaNKeysSameAtAnyBudget(t *testing.T) {
	batches := sortInput(7, 512, 64, true)
	keys := orderKeys("a")
	want, _, _ := runSort(t, batches, keys, -1, 0)
	sameRows(t, "in-memory vs reference", want, sortReference(batches, keys, -1))
	for _, budget := range []int64{256, 4096} {
		got, stat, _ := runSort(t, batches, keys, -1, budget)
		if stat.SpillParts == 0 {
			t.Fatalf("budget %d did not spill", budget)
		}
		sameRows(t, fmt.Sprintf("budget %d vs in-memory", budget), got, want)
	}
	got, _, _ := runSort(t, batches, keys, 100, 0)
	sameRows(t, "bounded vs in-memory head", got, want[:100])
}

// TestSortBoundProperty: for every bound, key list, input shape and
// budget, Limit over Sort emits exactly the head of the reference order —
// which is also what the unbounded Sort emits — and leaves no scratch
// file behind.
func TestSortBoundProperty(t *testing.T) {
	const n = 300
	rec := int64(sortSchema.RecordSize())
	keyLists := [][]query.OrderKey{
		orderKeys("a"), orderKeys("-a"), orderKeys("a", "-b"), orderKeys("-c", "a", "b"),
		orderKeys("a", "b", "-c", "d"), orderKeys("-a", "b", "-c", "d", "-e"), orderKeys("e", "d", "c", "b", "a"),
	}
	for _, specials := range []bool{false, true} {
		for _, batch := range []int{1, 37, n} {
			batches := sortInput(int64(batch), n, batch, specials)
			for _, keys := range keyLists {
				full, _, _ := runSort(t, batches, keys, -1, 0)
				sameRows(t, "unbounded vs reference", full, sortReference(batches, keys, -1))
				for _, k := range []int{0, 1, 2, n - 1, n, n + 1} {
					// No budget; one the k rows fit; one they do not; tiny.
					for _, budget := range []int64{0, int64(k)*rec + 1, int64(k)*rec - 1, 1 << 10} {
						if budget < 0 {
							continue
						}
						what := fmt.Sprintf("specials=%v batch=%d keys=%v k=%d budget=%d", specials, batch, keys, k, budget)
						got, stat, live := runSort(t, batches, keys, k, budget)
						sameRows(t, what, got, full[:min(k, n)])
						if len(live) > 0 {
							t.Fatalf("%s: scratch files left after Close: %v", what, live)
						}
						fits := budget == 0 || int64(k)*rec <= budget
						if k > 0 && fits && (stat.SpillBytes != 0 || stat.SpillParts != 0 || stat.PeakBytes > 2*int64(k)*rec) {
							t.Fatalf("%s: bound fits, yet stats %+v", what, stat)
						}
						if k > 0 && k < n && !fits && stat.SpillParts == 0 {
							t.Fatalf("%s: bound does not fit, yet nothing spilled", what)
						}
					}
				}
			}
		}
	}
}

// TestEstimatesKnowTheBound: admission and EXPLAIN price a bounded Sort by
// the rows its heap keeps, with or without a budget, and a global
// aggregate by the one row it emits.
func TestEstimatesKnowTheBound(t *testing.T) {
	rec := int64(sortSchema.RecordSize())
	scan := &ScanNode{schema: sortSchema, estRows: 1000}
	sorted, err := NewSort(scan, orderKeys("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := residentBytes(sorted); got != 1000*rec {
		t.Errorf("unbounded Sort resident = %d, want %d", got, 1000*rec)
	}
	p := &Plan{Root: NewLimit(sorted, 10)}
	passThrough := residentBytes(p.Root)
	if got := estRows(sorted); got != 10 {
		t.Errorf("bounded Sort estRows = %d, want 10", got)
	}
	if got := p.MemoryEstimate(); got != 10*rec+passThrough {
		t.Errorf("MemoryEstimate = %d, want %d", got, 10*rec+passThrough)
	}
	p.SetBudget(1 << 10)
	if got := p.DegradedEstimate(); got != 10*rec+passThrough {
		t.Errorf("DegradedEstimate = %d, want %d", got, 10*rec+passThrough)
	}
	if got := estRows(&AggregateNode{Child: scan}); got != 1 {
		t.Errorf("global aggregate estRows = %d, want 1", got)
	}
}

// BenchmarkSort prices the three ways a Sort runs — everything in memory,
// a 100-row bound, external at a 512 KiB budget share — at one and four
// keys over 32 768 seven-column rows (896 KiB) arriving in 4096-row
// batches.
func BenchmarkSort(b *testing.B) {
	const n = 1 << 15
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord}, tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord}, tuple.Attr{Name: "oilp", Kind: tuple.Measure},
		tuple.Attr{Name: "soil", Kind: tuple.Measure}, tuple.Attr{Name: "wp", Kind: tuple.Measure},
		tuple.Attr{Name: "swat", Kind: tuple.Measure},
	)
	rng := rand.New(rand.NewSource(1))
	var batches []*tuple.SubTable
	for r := 0; r < n; r++ {
		if r%4096 == 0 {
			batches = append(batches, tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, schema, 4096))
		}
		batches[len(batches)-1].AppendRow(float32(r%64), float32(r/64%64), float32(r/4096),
			rng.Float32(), rng.Float32(), float32(rng.Intn(1000)), rng.Float32())
	}
	for _, mode := range []struct {
		name   string
		limit  int
		budget int64
	}{{"full", -1, 0}, {"top100", 100, 0}, {"external512K", -1, 512 << 10}} {
		for _, keys := range [][]query.OrderKey{orderKeys("-wp"), orderKeys("-wp", "x", "y", "z")} {
			b.Run(fmt.Sprintf("%s/keys=%d", mode.name, len(keys)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					driveSort(b, batches, keys, mode.limit, mode.budget, func(*tuple.SubTable) {})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
