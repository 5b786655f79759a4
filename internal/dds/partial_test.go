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
	schema := tuple.NewSchema(
		tuple.Attr{Name: "a", Kind: tuple.Coord},
		tuple.Attr{Name: "b", Kind: tuple.Coord},
		tuple.Attr{Name: "c", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
		tuple.Attr{Name: "w", Kind: tuple.Measure},
	)
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
				st := tuple.NewSubTable(tuple.ID{}, schema, 0)
				for range rng.Intn(1200) {
					st.AppendRow(val(domain), val(domain), val(domain), val(0), val(0))
				}
				parts[pi] = append(parts[pi], st)
			}
		}

		p, err := NewPartial(schema, items, groupBy, having)
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
		got, err := p.Finalize(having)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveAggregate(parts, items, groupBy, having)
		if got.NumRows() != len(want) {
			t.Fatalf("trial %d (group by %v, having %+v): %d groups, want %d", trial, groupBy, having, got.NumRows(), len(want))
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
					t.Fatalf("trial %d (group by %v, items %v, having %+v): row %d col %d = %v (%08x), want %v (%08x)",
						trial, groupBy, items, having, r, c, gv, math.Float32bits(gv), wv, math.Float32bits(wv))
				}
			}
		}
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
	for range 2 {
		p.rehash(p.n + 3)
		p.lookup([]uint64{packed, packed, packed}, slices.Concat(w2, w1, w2))
		gid := p.gid
		if !slices.Equal(gid, []int32{0, 1, 0}) || p.Groups() != 2 {
			t.Fatalf("group numbers %v over %d groups, want [0 1 0] over 2", gid, p.Groups())
		}
		for r, g := range gid {
			p.accs[g].add(float64(r + 1))
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

// BenchmarkPartialFold folds a 64×64×32 grid's 131 072 rows, shuffled, in
// 2 048-row batches into one Partial and finalizes it, grouped by 0–3 of
// the grid columns: 1, 64, 4 096 and 131 072 groups.
func BenchmarkPartialFold(b *testing.B) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	const rows, batch = 64 * 64 * 32, 2048
	perm := rand.New(rand.NewSource(1)).Perm(rows)
	var batches []*tuple.SubTable
	for lo := 0; lo < rows; lo += batch {
		st := tuple.NewSubTable(tuple.ID{}, schema, batch)
		for _, c := range perm[lo : lo+batch] {
			st.AppendRow(float32(c/2048), float32(c/32%64), float32(c%32), float32(c)/7)
		}
		batches = append(batches, st)
	}
	items := []query.SelectItem{{Attr: "*", Agg: query.AggCount}, {Attr: "v", Agg: query.AggSum}, {Attr: "v", Agg: query.AggMin}}
	for k := range 4 {
		groupBy := []string{"x", "y", "z"}[:k]
		b.Run(fmt.Sprintf("groupby=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				p, err := NewPartial(schema, items, groupBy, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range batches {
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
