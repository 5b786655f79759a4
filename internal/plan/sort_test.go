package plan

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
func rowBits(batches []*tuple.SubTable) [][]uint32 {
	var out [][]uint32
	for _, st := range batches {
		for r := 0; r < st.NumRows(); r++ {
			b := make([]uint32, st.Schema.NumAttrs())
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
func sortReference(batches []*tuple.SubTable, keys []query.OrderKey, limit int) [][]uint32 {
	rows := rowBits(batches)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := batches[0].Schema.Index(k.Attr)
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
func runSort(tb testing.TB, batches []*tuple.SubTable, keys []query.OrderKey, limit int, budget int64) ([][]uint32, engine.OpStat, []string) {
	tb.Helper()
	var got [][]uint32
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

func sameRows(tb testing.TB, what string, got, want [][]uint32) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	diff, first := 0, -1
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
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

// TestSortBoundHuge: LIMIT 2^62, which the parser accepts, over a Sort
// emits every row in order from memory. The top-k buffer's cut point is
// 2·Bound, saturated; unsaturated it would wrap negative.
func TestSortBoundHuge(t *testing.T) {
	stmt, err := query.Parse("SELECT * FROM T ORDER BY a DESC, b LIMIT 4611686018427387904")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*query.Select)
	if sel.Limit != 1<<62 {
		t.Fatalf("parsed LIMIT %d, want 2^62", sel.Limit)
	}
	const n = 300
	rec := int64(sortSchema.RecordSize())
	for _, batch := range []int{1, 37, n} {
		batches := sortInput(int64(batch), n, batch, true)
		what := fmt.Sprintf("batch=%d", batch)
		got, stat, _ := runSort(t, batches, sel.OrderBy, sel.Limit, 0)
		sameRows(t, what, got, sortReference(batches, sel.OrderBy, -1))
		if stat.SpillParts != 0 || stat.PeakBytes > n*rec {
			t.Fatalf("%s: stats %+v, want no spill and at most the input resident", what, stat)
		}
	}
}

// TestSortBoundCutEdges drives the top-k cut where its first word decides
// nothing: every first key is a NaN of some payload and sign or a zero of
// either sign, so every row ties the cut row on its first word (a NaN, or
// a -0 that equals +0) and the later keys and arrival decide. Batches of
// one row, of a few rows, and the whole input (every cut inside one batch)
// must each emit the reference head while holding at most 2·Bound rows.
func TestSortBoundCutEdges(t *testing.T) {
	const n = 400
	rec := int64(sortSchema.RecordSize())
	firsts := []float32{
		sortSpecials[0], sortSpecials[1], sortSpecials[2], // NaNs
		sortSpecials[3], 0, // -0, +0
	}
	for _, pool := range []struct {
		name   string
		values []float32
	}{{"nan", firsts[:3]}, {"zero", firsts[3:]}, {"nan-or-zero", firsts}, {"constant", []float32{7}}} {
		rng := rand.New(rand.NewSource(int64(len(pool.values))))
		rows := make([][]uint32, n)
		for r := range rows {
			rows[r] = make([]uint32, sortSchema.NumAttrs())
			rows[r][0] = math.Float32bits(pool.values[rng.Intn(len(pool.values))])
			for c := 1; c < 5; c++ {
				rows[r][c] = math.Float32bits(float32(rng.Intn(3)))
			}
			rows[r][5] = math.Float32bits(float32(r))
		}
		for _, batch := range []int{1, 13, n} {
			batches := sortBatches(rows, batch)
			for _, keys := range [][]query.OrderKey{orderKeys("a", "b"), orderKeys("-a", "-b", "c"), orderKeys("a")} {
				want := sortReference(batches, keys, -1)
				for _, k := range []int{1, 5, 17, n / 2} {
					what := fmt.Sprintf("%s batch=%d keys=%v k=%d", pool.name, batch, keys, k)
					got, stat, _ := runSort(t, batches, keys, k, 0)
					sameRows(t, what, got, want[:k])
					if stat.PeakBytes > 2*int64(k)*rec {
						t.Fatalf("%s: peaks at %d B, over 2·Bound rows (%d B)", what, stat.PeakBytes, 2*int64(k)*rec)
					}
				}
			}
		}
	}
}

// sortBatches rebuilds rowBits rows into sortSchema batches of the given
// size.
func sortBatches(rows [][]uint32, batch int) []*tuple.SubTable {
	var out []*tuple.SubTable
	row := make([]float32, sortSchema.NumAttrs())
	for r, bits := range rows {
		if r%batch == 0 {
			out = append(out, tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(len(out))}, sortSchema, batch))
		}
		for c, b := range bits {
			row[c] = math.Float32frombits(b)
		}
		out[len(out)-1].AppendRow(row...)
	}
	return out
}

// FuzzSortKernel differentially checks Sort (under Limit when limited)
// against sortReference: batches of 0 to 64 rows whose keys mix the
// sortSpecials with a few numbers, one to three keys in either direction,
// every limit from none to one past the input, and no budget, a tiny one
// or one a byte either side of the bound's rows.
func FuzzSortKernel(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), int16(10), uint8(0))
	f.Add(int64(2), uint16(300), uint8(0x2d), int16(-1), uint8(1))
	f.Add(int64(3), uint16(64), uint8(0x1b), int16(7), uint8(2))
	f.Add(int64(4), uint16(257), uint8(0x3e), int16(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, limit int16, budgetSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size % 512)
		values := append([]float32{-1, 0.5, 2}, sortSpecials...)
		var batches []*tuple.SubTable
		row := make([]float32, sortSchema.NumAttrs())
		for r := 0; r < n || len(batches) == 0; {
			st := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(len(batches))}, sortSchema, 64)
			for m := min(rng.Intn(65), n-r); m > 0; m-- {
				for c := 0; c < 5; c++ {
					row[c] = values[rng.Intn(len(values))]
				}
				row[5] = float32(r)
				st.AppendRow(row...)
				r++
			}
			batches = append(batches, st)
		}
		// shape: bits 0-1 the key count less one, bits 2-4 directions.
		var keys []query.OrderKey
		for i, c := range rng.Perm(5)[:1+int(shape&3)%3] {
			keys = append(keys, query.OrderKey{Attr: sortSchema.Attrs[c].Name, Desc: shape&(4<<i) != 0})
		}
		k := int(limit)%(n+3) - 1 // -1 … n+1
		if k < -1 {
			k = -k - 2
		}
		rec := int64(sortSchema.RecordSize())
		budget := []int64{0, 1 + int64(rng.Intn(256)), int64(max(k, 1))*rec - 1, int64(max(k, 1))*rec + 1}[budgetSel%4]
		what := fmt.Sprintf("seed=%d n=%d keys=%v limit=%d budget=%d", seed, n, keys, k, budget)
		got, stat, live := runSort(t, batches, keys, k, budget)
		sameRows(t, what, got, sortReference(batches, keys, k))
		if len(live) > 0 {
			t.Fatalf("%s: scratch files left after Close: %v", what, live)
		}
		if k > 0 && (budget == 0 || int64(k)*rec <= budget) && (stat.SpillParts != 0 || stat.PeakBytes > 2*int64(k)*rec) {
			t.Fatalf("%s: bound fits, yet stats %+v", what, stat)
		}
	})
}

// kernelSchema is seven key columns plus a unique payload: enough keys
// that the filter and the merge compare words well past the first.
var kernelSchema = tuple.NewSchema(
	tuple.Attr{Name: "k0", Kind: tuple.Measure}, tuple.Attr{Name: "k1", Kind: tuple.Measure},
	tuple.Attr{Name: "k2", Kind: tuple.Measure}, tuple.Attr{Name: "k3", Kind: tuple.Measure},
	tuple.Attr{Name: "k4", Kind: tuple.Measure}, tuple.Attr{Name: "k5", Kind: tuple.Measure},
	tuple.Attr{Name: "k6", Kind: tuple.Measure}, tuple.Attr{Name: "id", Kind: tuple.Measure},
)

// kernelInput returns n rows in 97-row batches. Each key column draws
// from five finite values that differ from the first in one 8-bit digit
// each — so every digit of every key word decides the order of some pair
// of rows — and, one time in eight, from sortSpecials. Five values per
// column keep ties on every key common enough to expose an unstable pass.
func kernelInput(seed int64, n int) []*tuple.SubTable {
	rng := rand.New(rand.NewSource(seed))
	pools := make([][]float32, 7)
	for c := range pools {
		base := rng.Uint32() &^ (1 << 30) // exponent below 128: every neighbour is finite
		for _, d := range []uint32{0, 1, 1 << 8, 1 << 16, 1 << 24} {
			pools[c] = append(pools[c], math.Float32frombits(base+d))
		}
	}
	rows := make([][]uint32, n)
	for r := range rows {
		rows[r] = make([]uint32, kernelSchema.NumAttrs())
		for c, pool := range pools {
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(8) == 0 {
				v = sortSpecials[rng.Intn(len(sortSpecials))]
			}
			rows[r][c] = math.Float32bits(v)
		}
		rows[r][7] = math.Float32bits(float32(r))
	}
	return kernelBatches(rows)
}

// TestSortKernelMatchesReference: the in-memory sort, run generation and
// the top-k cut radix-sort; the top-k filter and the run merge compare key
// words. At sizes from two rows up to 5 000, with one, four, five and
// seven keys in mixed directions, every bound and budget must emit
// exactly the reference order.
func TestSortKernelMatchesReference(t *testing.T) {
	rec := int64(kernelSchema.RecordSize())
	keyLists := [][]query.OrderKey{
		orderKeys("-k0"),
		orderKeys("k0", "-k1", "k2", "-k3"),
		orderKeys("-k0", "k1", "-k2", "k3", "k4"),
		orderKeys("k0", "-k1", "k2", "k3", "-k4", "k5", "-k6"),
	}
	for _, n := range []int{2, 31, 127, 128, 129, 1000, 5000} {
		random := kernelInput(int64(n), n)
		for _, keys := range keyLists {
			// The input shuffled; already in order (a GROUP BY's output
			// under its own keys), which radix may return as it stands; and
			// in order but for its last two rows.
			sorted := sortReference(random, keys, -1)
			almost := slices.Clone(sorted)
			almost[n-2], almost[n-1] = almost[n-1], almost[n-2]
			for _, in := range []struct {
				name    string
				batches []*tuple.SubTable
			}{{"random", random}, {"sorted", kernelBatches(sorted)}, {"almost", kernelBatches(almost)}} {
				want := sortReference(in.batches, keys, -1)
				// Unbounded; two fixed bounds; half the input.
				for _, limit := range []int{-1, 10, 131, n / 2} {
					// No budget; a run per batch; runs of a third of the input.
					for _, budget := range []int64{0, 1024, int64(n) * rec / 3} {
						what := fmt.Sprintf("%s n=%d keys=%v limit=%d budget=%d", in.name, n, keys, limit, budget)
						got, stat, _ := runSort(t, in.batches, keys, limit, budget)
						head := want
						if limit >= 0 {
							head = want[:min(limit, n)]
						}
						sameRows(t, what, got, head)
						if limit < 0 && budget > 0 && int64(n)*rec > budget && stat.SpillParts == 0 {
							t.Fatalf("%s: nothing spilled", what)
						}
					}
				}
			}
		}
	}
}

// kernelBatches rebuilds rowBits rows into kernelInput's batches.
func kernelBatches(rows [][]uint32) []*tuple.SubTable {
	const batch = 97
	var out []*tuple.SubTable
	row := make([]float32, kernelSchema.NumAttrs())
	for r, bits := range rows {
		if r%batch == 0 {
			out = append(out, tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(len(out))}, kernelSchema, batch))
		}
		for c, b := range bits {
			row[c] = math.Float32frombits(b)
		}
		out[len(out)-1].AppendRow(row...)
	}
	return out
}

// TestEstimatesKnowTheBound: admission and EXPLAIN price a bounded Sort by
// the Bound rows its top-k cut keeps, with or without a budget, and a
// global aggregate by the one row it emits.
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
