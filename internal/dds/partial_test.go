package dds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// naiveAgg is the reference fold: one group's count, sum, min and max,
// seeded by its first value and updated by strict comparisons, as the
// aggregate definitions require.
type naiveAgg struct {
	n        int64
	sum      float64
	min, max float64
}

func (a *naiveAgg) add(v float64) {
	if a.n == 0 {
		a.min, a.max = v, v
	}
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

func (a naiveAgg) value(agg query.Agg) float64 {
	switch agg {
	case query.AggAvg:
		return a.sum / float64(a.n)
	case query.AggSum:
		return a.sum
	case query.AggMin:
		return a.min
	case query.AggMax:
		return a.max
	}
	return float64(a.n)
}

type naiveGroup struct {
	key  []float32
	aggs []naiveAgg // one per item, then HAVING's
}

// naiveAggregate folds the rows of every part's batches, in order, into
// a map keyed by the group's tuple.KeyWord tuple, and emits the groups in
// ascending word order.
func naiveAggregate(parts [][]*tuple.SubTable, items []query.SelectItem, groupBy []string, having *query.Having) [][]float32 {
	groups := map[string]*naiveGroup{}
	words := func(g *naiveGroup) []uint32 {
		w := make([]uint32, len(g.key))
		for i, v := range g.key {
			w[i] = tuple.KeyWord(v)
		}
		return w
	}
	cols := append(slices.Clone(items), query.SelectItem{Attr: "*", Agg: query.AggCount})
	if having != nil {
		cols[len(items)] = query.SelectItem{Attr: having.Attr, Agg: having.Agg}
	}
	for _, st := range slices.Concat(parts...) {
		for r := range st.NumRows() {
			key := make([]float32, len(groupBy))
			id := ""
			for i, a := range groupBy {
				v := st.Value(r, st.Schema.Index(a))
				key[i] = tuple.KeyValue(v)
				id += fmt.Sprintf("%08x", tuple.KeyWord(v))
			}
			g := groups[id]
			if g == nil {
				g = &naiveGroup{key: key, aggs: make([]naiveAgg, len(cols))}
				groups[id] = g
			}
			for i, it := range cols {
				v := 0.0
				if it.Attr != "*" {
					v = float64(st.Value(r, st.Schema.Index(it.Attr)))
				}
				g.aggs[i].add(v)
			}
		}
	}
	var out []*naiveGroup
	for _, g := range groups {
		if having != nil && !naiveHaving(having, g.aggs[len(items)].value(having.Agg)) {
			continue
		}
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b *naiveGroup) int { return slices.Compare(words(a), words(b)) })
	rows := make([][]float32, len(out))
	for i, g := range out {
		rows[i] = slices.Clone(g.key)
		for j, it := range items {
			rows[i] = append(rows[i], float32(g.aggs[j].value(it.Agg)))
		}
	}
	return rows
}

func naiveHaving(h *query.Having, v float64) bool {
	switch h.Op {
	case "=":
		return v == h.Val
	case "<":
		return v < h.Val
	case "<=":
		return v <= h.Val
	case ">":
		return v > h.Val
	case ">=":
		return v >= h.Val
	}
	return false
}

// specials are the values whose key class or arithmetic is easy to get
// wrong: NaNs with payloads of both signs, both zeros, both infinities.
var specials = []float32{
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7F800001), math.Float32frombits(0xFFA00005),
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// TestPartialMatchesNaive folds random parts' batches in order into one
// partial and checks Finalize bit for bit against naiveAggregate, over 0–3
// group columns, every aggregate and HAVING.
func TestPartialMatchesNaive(t *testing.T) {
	aggs := []query.Agg{query.AggAvg, query.AggSum, query.AggMin, query.AggMax, query.AggCount}
	ops := []string{"=", "<", "<=", ">", ">="}
	rng := rand.New(rand.NewSource(33))
	val := func(domain int) float32 {
		if rng.Intn(6) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		if domain == 0 {
			return float32(rng.NormFloat64() * 1e3)
		}
		return float32(rng.Intn(domain) - domain/2)
	}
	for trial := range 200 {
		groupBy := []string{"a", "b", "c"}[:trial%4]
		var items []query.SelectItem
		for _, agg := range aggs {
			items = append(items, query.SelectItem{Attr: []string{"v", "w", "c"}[rng.Intn(3)], Agg: agg})
		}
		items = append(items, query.SelectItem{Attr: "*", Agg: query.AggCount})
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var having *query.Having
		if rng.Intn(2) == 0 {
			having = &query.Having{Agg: aggs[rng.Intn(len(aggs))], Attr: []string{"v", "*"}[rng.Intn(2)],
				Op: ops[rng.Intn(len(ops))], Val: float64(rng.Intn(5) - 1)}
		}
		// Small key domains repeat keys; domain 0 (any float) makes
		// thousands of groups and grows the table several times.
		domain := []int{3, 9, 0}[rng.Intn(3)]
		parts := make([][]*tuple.SubTable, 1+rng.Intn(4))
		for pi := range parts {
			for range rng.Intn(4) {
				st := tuple.NewSubTable(tuple.ID{}, partialSchema, 0)
				for range rng.Intn(1200) {
					st.AppendRow(val(domain), val(domain), val(domain), val(0), val(0))
				}
				parts[pi] = append(parts[pi], st)
			}
		}
		p := foldAll(t, parts, items, groupBy, having)
		checkNaive(t, fmt.Sprintf("trial %d", trial), p, parts, items, groupBy, having)
	}
}

// checkNaive finalizes p, which folded parts' batches in order, and checks
// it bit for bit against naiveAggregate.
func checkNaive(t *testing.T, name string, p *Partial, parts [][]*tuple.SubTable, items []query.SelectItem, groupBy []string, having *query.Having) {
	t.Helper()
	got, err := p.Finalize(having)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveAggregate(parts, items, groupBy, having)
	if got.NumRows() != len(want) {
		t.Fatalf("%s (group by %v, having %+v): %d groups, want %d", name, groupBy, having, got.NumRows(), len(want))
	}
	for r, w := range want {
		for c, wv := range w {
			gv := got.Value(r, c)
			// Which NaN a sum of two NaNs carries is the hardware's
			// choice of operand, and the compiler may order them either
			// way; every other value, NaN keys and extremes included,
			// must match bit for bit.
			summed := c >= len(groupBy) && (items[c-len(groupBy)].Agg == query.AggSum || items[c-len(groupBy)].Agg == query.AggAvg)
			if summed && gv != gv && wv != wv {
				continue
			}
			if math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("%s (group by %v, items %v, having %+v): row %d col %d = %v (%08x), want %v (%08x)",
					name, groupBy, items, having, r, c, gv, math.Float32bits(gv), wv, math.Float32bits(wv))
			}
		}
	}
}

// partialSchema is the fold tests' input: three key columns and two
// measures.
var partialSchema = tuple.NewSchema(
	tuple.Attr{Name: "a", Kind: tuple.Coord},
	tuple.Attr{Name: "b", Kind: tuple.Coord},
	tuple.Attr{Name: "c", Kind: tuple.Coord},
	tuple.Attr{Name: "v", Kind: tuple.Measure},
	tuple.Attr{Name: "w", Kind: tuple.Measure},
)

// foldAll folds parts' batches in order into a new Partial.
func foldAll(t *testing.T, parts [][]*tuple.SubTable, items []query.SelectItem, groupBy []string, having *query.Having) *Partial {
	t.Helper()
	p, err := NewPartial(partialSchema, items, groupBy, having)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		for _, st := range part {
			if err := p.Fold(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// FuzzPartialFold checks the fold kernel against naiveAggregate, a map
// fold that shares none of its code. (plan's FuzzAggregateKernel compares
// the operator with dds.Aggregate, which runs the same Partial, so it
// proves the operator's spilling and replay, not the kernel.) Batches of
// 0–5 000 rows cross foldBlock; keys of 0–3 columns come from small
// domains and specials; the items are every kind, and HAVING any kind.
func FuzzPartialFold(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0x01))
	f.Add(int64(2), uint16(4999), uint8(0x06))
	f.Add(int64(3), uint16(2049), uint8(0x3b))
	f.Add(int64(4), uint16(300), uint8(0xcf))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		// shape: bits 0-1 the GROUP BY column count, bit 2 HAVING, bits
		// 3-4 the key domain, bits 5-6 the batch count less one.
		groupBy := []string{"a", "b", "c"}[:shape&3]
		domain := []int{2, 7, 60, 5000}[shape>>3&3]
		val := func(domain int) float32 {
			if rng.Intn(8) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float32(rng.Intn(domain) - domain/2)
		}
		aggs := []query.Agg{query.AggAvg, query.AggSum, query.AggMin, query.AggMax, query.AggCount}
		items := []query.SelectItem{{Attr: "*", Agg: query.AggCount}}
		for _, agg := range aggs {
			items = append(items, query.SelectItem{Attr: []string{"v", "w", "c"}[rng.Intn(3)], Agg: agg})
		}
		var having *query.Having
		if shape&4 != 0 {
			having = &query.Having{Agg: aggs[rng.Intn(len(aggs))], Attr: []string{"v", "*"}[rng.Intn(2)],
				Op: []string{"=", "<", "<=", ">", ">="}[rng.Intn(5)], Val: float64(rng.Intn(5) - 1)}
		}
		var batches []*tuple.SubTable
		for range 1 + shape>>5&3 {
			st := tuple.NewSubTable(tuple.ID{}, partialSchema, 0)
			for range rng.Intn(int(size)%5001 + 1) {
				st.AppendRow(val(domain), val(domain), val(domain), val(1<<20)/64, val(1<<20)/64)
			}
			batches = append(batches, st)
		}
		parts := [][]*tuple.SubTable{batches}
		checkNaive(t, fmt.Sprintf("seed %d", seed), foldAll(t, parts, items, groupBy, having), parts, items, groupBy, having)
	})
}

// TestPartialRehashInBlock grows the group table from empty within one
// block: a 2 048-row batch of distinct 1- or 2-column keys rehashes the
// table while most of its rows still wait to be probed. A second batch of
// 5 000 rows, over twice as many keys, splits across foldBlock.
func TestPartialRehashInBlock(t *testing.T) {
	items := []query.SelectItem{{Attr: "*", Agg: query.AggCount}, {Attr: "v", Agg: query.AggSum},
		{Attr: "v", Agg: query.AggMin}, {Attr: "w", Agg: query.AggMax}, {Attr: "w", Agg: query.AggAvg}}
	having := &query.Having{Agg: query.AggSum, Attr: "w", Op: ">", Val: 0}
	for _, groupBy := range [][]string{{"a"}, {"a", "b"}} {
		rng := rand.New(rand.NewSource(int64(len(groupBy))))
		// batch holds rows rows whose keys are a permutation of 0..rows-1
		// taken mod keys: key k is a = k-100 alone, or (a, b) = (k/64, k%64).
		batch := func(rows, keys int) *tuple.SubTable {
			st := tuple.NewSubTable(tuple.ID{}, partialSchema, rows)
			for _, k := range rng.Perm(rows) {
				k %= keys
				a, b := float32(k/64), float32(k%64)
				if len(groupBy) == 1 {
					a, b = float32(k-100), 0
				}
				st.AppendRow(a, b, 0, float32(rng.NormFloat64()), float32(rng.NormFloat64()))
			}
			return st
		}
		first, second := batch(foldBlock, foldBlock), batch(5000, 2*foldBlock)
		p := foldAll(t, [][]*tuple.SubTable{{first}}, items, groupBy, having)
		if p.Groups() != foldBlock {
			t.Fatalf("group by %v: %d groups after one block of distinct keys, want %d", groupBy, p.Groups(), foldBlock)
		}
		checkNaive(t, "one block", p, [][]*tuple.SubTable{{first}}, items, groupBy, having)
		parts := [][]*tuple.SubTable{{first, second}}
		checkNaive(t, "split batch", foldAll(t, parts, items, groupBy, having), parts, items, groupBy, having)
	}
}

// TestPartialWideKeyCollision forces two different 3-column key tuples
// onto one packed key: the word comparison must keep them two groups.
func TestPartialWideKeyCollision(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "a", Kind: tuple.Coord},
		tuple.Attr{Name: "b", Kind: tuple.Coord},
		tuple.Attr{Name: "c", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	p, err := NewPartial(schema, []query.SelectItem{{Attr: "v", Agg: query.AggSum}}, []string{"a", "b", "c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w1 := []uint32{tuple.KeyWord(1), tuple.KeyWord(2), tuple.KeyWord(3)}
	w2 := []uint32{tuple.KeyWord(1), tuple.KeyWord(2), tuple.KeyWord(4)}
	const packed = 0x5EED
	h := tuple.Mix(packed, tuple.SaltTable)
	for range 2 {
		p.rehash(p.n + 3)
		p.probe([]uint64{packed, packed, packed}, []uint64{h, h, h}, slices.Concat(w2, w1, w2))
		gid := p.gid
		if !slices.Equal(gid, []int32{0, 1, 0}) || p.Groups() != 2 {
			t.Fatalf("group numbers %v over %d groups, want [0 1 0] over 2", gid, p.Groups())
		}
		for r, g := range gid {
			p.accs[g].sum += float64(r + 1)
		}
	}
	out, err := p.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float32{{1, 2, 3, 4}, {1, 2, 4, 8}}
	if out.NumRows() != len(want) {
		t.Fatalf("%d rows, want %d", out.NumRows(), len(want))
	}
	for r, w := range want {
		if got := out.Row(r, nil); !slices.Equal(got, w) {
			t.Errorf("row %d = %v, want %v", r, got, w)
		}
	}
}

// BenchmarkPartialFold folds a 64×64×32 grid's 131 072 rows in 2 048-row
// batches into one Partial and finalizes it, grouped by 0–3 of the grid
// columns: 1, 64, 4 096 and 131 072 groups. The groupby=k sub-benchmarks
// fold the rows shuffled, with COUNT(*), SUM and MIN; the grid/groupby=k
// ones fold them in the join's release order (x fastest within each
// 8×8×8 right chunk, chunk after chunk) with one item of every kind.
func BenchmarkPartialFold(b *testing.B) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	const rows, batch = 64 * 64 * 32, 2048
	// cell c is (x, y, z) = (c/2048, c/32%64, c%32).
	batches := func(cells []int) []*tuple.SubTable {
		var out []*tuple.SubTable
		for lo := 0; lo < rows; lo += batch {
			st := tuple.NewSubTable(tuple.ID{}, schema, batch)
			for _, c := range cells[lo : lo+batch] {
				st.AppendRow(float32(c/2048), float32(c/32%64), float32(c%32), float32(c)/7)
			}
			out = append(out, st)
		}
		return out
	}
	grid := make([]int, 0, rows)
	for cz := 0; cz < 32; cz += 8 {
		for cy := 0; cy < 64; cy += 8 {
			for cx := 0; cx < 64; cx += 8 {
				for z := cz; z < cz+8; z++ {
					for y := cy; y < cy+8; y++ {
						for x := cx; x < cx+8; x++ {
							grid = append(grid, x*2048+y*32+z)
						}
					}
				}
			}
		}
	}
	var every []query.SelectItem
	for _, agg := range []query.Agg{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax} {
		every = append(every, query.SelectItem{Attr: "v", Agg: agg})
	}
	orders := []struct {
		prefix  string
		batches []*tuple.SubTable
		items   []query.SelectItem
	}{
		{"", batches(rand.New(rand.NewSource(1)).Perm(rows)),
			[]query.SelectItem{{Attr: "*", Agg: query.AggCount}, {Attr: "v", Agg: query.AggSum}, {Attr: "v", Agg: query.AggMin}}},
		{"grid/", batches(grid), append([]query.SelectItem{{Attr: "*", Agg: query.AggCount}}, every...)},
	}
	for _, o := range orders {
		for k := range 4 {
			groupBy := []string{"x", "y", "z"}[:k]
			b.Run(fmt.Sprintf("%sgroupby=%d", o.prefix, k), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					p, err := NewPartial(schema, o.items, groupBy, nil)
					if err != nil {
						b.Fatal(err)
					}
					for _, st := range o.batches {
						if err := p.Fold(st); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := p.Finalize(nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
