package hashjoin

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sciview/internal/tuple"
)

var negZero = math.Float32frombits(1 << 31)

// wideSchemas returns a left and a right schema sharing five key
// candidates k0..k4, with two measures each.
func wideSchemas() (tuple.Schema, tuple.Schema) {
	var l, r []tuple.Attr
	for i := 0; i < 5; i++ {
		a := tuple.Attr{Name: fmt.Sprintf("k%d", i), Kind: tuple.Coord}
		l, r = append(l, a), append(r, a)
	}
	l = append(l, tuple.Attr{Name: "lm0", Kind: tuple.Measure}, tuple.Attr{Name: "lm1", Kind: tuple.Measure})
	// The right side leads with a measure, so its non-key columns are not
	// a suffix of the schema.
	r = append([]tuple.Attr{{Name: "rm0", Kind: tuple.Measure}}, r...)
	r = append(r, tuple.Attr{Name: "rm1", Kind: tuple.Measure})
	return tuple.NewSchema(l...), tuple.NewSchema(r...)
}

// kernelTable fills n rows: key columns from a small domain salted with
// ±0 and NaN (so keys repeat on both sides and the specials meet each
// other), measures unique per row.
func kernelTable(schema tuple.Schema, n, domain int, r *rand.Rand, tag float32) *tuple.SubTable {
	st := tuple.NewSubTable(tuple.ID{}, schema, n)
	row := make([]float32, schema.NumAttrs())
	for i := 0; i < n; i++ {
		for c, a := range schema.Attrs {
			switch {
			case a.Kind == tuple.Measure:
				row[c] = tag + float32(i)
			case r.Intn(12) == 0:
				row[c] = negZero
			case r.Intn(40) == 0:
				row[c] = float32(math.NaN())
			default:
				row[c] = float32(r.Intn(domain))
			}
		}
		st.AppendRow(row...)
	}
	return st
}

// sameRowsOrdered is sameRows (bit-level, in order) with a diagnosis.
func sameRowsOrdered(t *testing.T, what string, got, want *tuple.SubTable) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), want.NumRows())
	}
	if !sameRows(got, want) {
		t.Fatalf("%s: rows differ from the reference", what)
	}
}

// TestKernelMatchesNestedLoop is the kernel's property test: match vectors
// plus gather against the O(n·m) reference, in the reference's order
// (ascending right row, then ascending left row), for 1/2/3/5 key
// attributes with duplicate keys on both sides, ±0 and NaN keys, empty
// sides, unmatched right rows, and an output that already holds rows (a
// collecting joiner's). Every case runs through an independent table, a
// reused builder and the spilled pair join.
func TestKernelMatchesNestedLoop(t *testing.T) {
	ls, rs := wideSchemas()
	var b Builder // reused across every case: the arena must carry nothing over
	hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { return st, nil }}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		nl, nr := r.Intn(120), r.Intn(120)
		if seed%7 == 0 {
			nl = 0
		}
		if seed%11 == 0 {
			nr = 0
		}
		domain := 2 + r.Intn(4)
		left := kernelTable(ls, nl, domain, r, 1000)
		right := kernelTable(rs, nr, domain+1, r, 5000) // domain+1: some right rows match nothing
		for _, nk := range []int{1, 2, 3, 5} {
			keys := make([]string, nk)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			what := fmt.Sprintf("seed %d, %d keys, %d×%d", seed, nk, nl, nr)
			want, err := NestedLoop(left, right, keys)
			if err != nil {
				t.Fatal(err)
			}
			// The reference output after three earlier rows.
			pre := tuple.NewSubTable(want.ID, want.Schema, 0)
			for i := 0; i < 3; i++ {
				pre.AppendRow(make([]float32, want.Schema.NumAttrs())...)
			}
			wantPre := tuple.NewSubTable(want.ID, want.Schema, 0)
			if err := wantPre.AppendAll(pre); err != nil {
				t.Fatal(err)
			}
			if err := wantPre.AppendAll(want); err != nil {
				t.Fatal(err)
			}

			got, err := Join(left, right, keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRowsOrdered(t, what+" (independent table)", got, want)

			// The builder's probe, a gather of its pairs and the spilled
			// pair join write each demand shape, at 1 and 4 workers: the
			// full output projected onto the shape.
			for _, shape := range demandShapes(want.Schema, keys) {
				spre, swant := project(t, pre, shape), project(t, wantPre, shape)
				for _, workers := range []int{1, 4} {
					what := fmt.Sprintf("%s, out %v, %d workers", what, shape, workers)
					if _, err := b.Build(left, keys, workers, nil); err != nil {
						t.Fatal(err)
					}
					out := project(t, spre, shape)
					var stats Stats
					m, err := b.Probe(right, keys, workers, out, &stats)
					if err != nil {
						t.Fatal(err)
					}
					if m != want.NumRows() || stats.Matches.Load() != int64(m) || stats.TuplesProbed.Load() != int64(nr) {
						t.Fatalf("%s: matches %d (stats %d, probed %d), want %d", what, m, stats.Matches.Load(), stats.TuplesProbed.Load(), want.NumRows())
					}
					sameRowsOrdered(t, what+" (reused builder, pre-filled out)", out, swant)
					gathered := gatherPairs(t, what, left, right, keys, b.Pairs(), workers, spre)
					sameRowsOrdered(t, what+" (gathered from the pairs, pre-filled out)", gathered, swant)

					spilled := project(t, spre, shape)
					if _, _, err := b.JoinPairSpill(left, right, keys, "t", workers, 256, 4, 3, spillPart, hooks, spilled, nil); err != nil {
						t.Fatal(err)
					}
					sameRowsOrdered(t, what+" (spilled, pre-filled out)", spilled, swant)
					if b.Pairs() != nil || b.PairsBytes() != 0 {
						t.Fatalf("%s: a spilled pair join left pairs to keep", what)
					}
				}
			}
		}
	}
}

// demandShapes returns the output shapes a consumer may ask of a join
// whose full result schema is full, on keys: no column, the join keys
// only, the right payload only, a left measure beside an "r_"-renamed
// right column (when a non-key right column collides), and every column.
// Each lists full's names in full's order.
func demandShapes(full tuple.Schema, keys []string) [][]string {
	shapes := [][]string{{}, keys, {"rm0", "rm1"}}
	if full.Index("r_k4") >= 0 {
		shapes = append(shapes, []string{"lm1", "r_k4"})
	}
	return append(shapes, full.Names())
}

// project returns a copy of st's columns names, in that order, with st's
// row count: a table of the projected shape that a join may append to.
func project(t *testing.T, st *tuple.SubTable, names []string) *tuple.SubTable {
	t.Helper()
	view, err := st.Project(names)
	if err != nil {
		t.Fatal(err)
	}
	out := tuple.NewSubTable(st.ID, view.Schema, 0)
	if err := out.AppendAll(view); err != nil {
		t.Fatal(err)
	}
	return out
}

// gatherPairs gathers p, recorded probing left with right on keys, into a
// copy of pre with workers workers and a fresh builder, from right's
// payload columns alone: its key columns are withheld. It checks that p
// indexes the two sides and that only the matches are counted.
func gatherPairs(t *testing.T, what string, left, right *tuple.SubTable, keys []string, p *Pairs, workers int, pre *tuple.SubTable) *tuple.SubTable {
	t.Helper()
	if p == nil || !p.Indexes(left.NumRows(), right.NumRows()) || p.Bytes() != PairsBytes(len(p.Left)) {
		t.Fatalf("%s: pairs %+v do not index %d×%d rows", what, p, left.NumRows(), right.NumRows())
	}
	var g Builder
	payload, err := g.Payload(left.Schema, right.Schema, pre.Schema, keys)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float32, right.Schema.NumAttrs())
	for _, c := range payload {
		cols[c] = right.Col(c)
	}
	out := tuple.NewSubTable(pre.ID, pre.Schema, 0)
	if err := out.AppendAll(pre); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	m, err := g.Gather(left, p, right.Schema, cols, keys, workers, out, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if m != len(p.Left) || stats.Matches.Load() != int64(m) || stats.TuplesProbed.Load() != 0 || stats.TuplesBuilt.Load() != 0 {
		t.Fatalf("%s: gathered %d of %d pairs (stats %d matches, %d probed, %d built)", what, m, len(p.Left),
			stats.Matches.Load(), stats.TuplesProbed.Load(), stats.TuplesBuilt.Load())
	}
	return out
}

// TestGatherRejectsForeignPairs: pairs gathered against sides whose row
// counts they do not index are refused, never read out of range.
func TestGatherRejectsForeignPairs(t *testing.T) {
	ls, rs := wideSchemas()
	r := rand.New(rand.NewSource(5))
	left, right := kernelTable(ls, 40, 4, r, 1000), kernelTable(rs, 30, 4, r, 5000)
	keys := []string{"k0"}
	var b Builder
	if _, err := b.Build(left, keys, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := tuple.NewSubTable(tuple.ID{}, left.Schema.JoinResult(right.Schema, keys, "r_"), 0)
	if _, err := b.Probe(right, keys, 1, out, nil); err != nil {
		t.Fatal(err)
	}
	p := b.Pairs()
	cols := make([][]float32, right.Schema.NumAttrs())
	for c := range cols {
		cols[c] = right.Col(c)
	}
	if _, err := b.Gather(left.Head(20), p, right.Schema, cols, keys, 1, out, nil); err == nil {
		t.Error("pairs gathered against a left of another row count")
	}
	cols[0] = cols[0][:10] // rm0, a payload column
	if _, err := b.Gather(left, p, right.Schema, cols, keys, 1, out, nil); err == nil {
		t.Error("pairs gathered against a right of another row count")
	}
}

// TestKernelParallelByteIdentical: at n ≥ ParallelThreshold the ranged
// probe gathers at prefix-summed offsets; 1, 2 and 4 workers must produce
// the serial bytes, on three key attributes with chains, into an output
// that already holds rows.
func TestKernelParallelByteIdentical(t *testing.T) {
	ls, rs := wideSchemas()
	r := rand.New(rand.NewSource(3))
	n := ParallelThreshold + 1000
	left := kernelTable(ls, n, 12, r, 1000)
	right := kernelTable(rs, n, 13, r, 5000)
	keys := []string{"k0", "k1", "k2"}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")
	var ref *tuple.SubTable
	for _, workers := range []int{1, 2, 4} {
		var b Builder
		ht, err := b.Build(left, keys, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
		out.AppendRow(make([]float32, outSchema.NumAttrs())...)
		for pass := 0; pass < 2; pass++ { // the second pass reuses the per-worker vectors
			if _, err := ht.ProbeParallel(right, keys, 1, workers, out, nil); err != nil {
				t.Fatal(err)
			}
		}
		if ref == nil {
			ref = out
			if ref.NumRows() < n {
				t.Fatalf("only %d matches: the case does not exercise chains", ref.NumRows())
			}
			continue
		}
		sameRowsOrdered(t, fmt.Sprintf("%d workers", workers), out, ref)
	}
	// The pairs of a ranged probe gather the same bytes at any width.
	var b Builder
	if _, err := b.Build(left, keys, 4, nil); err != nil {
		t.Fatal(err)
	}
	pre := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
	pre.AppendRow(make([]float32, outSchema.NumAttrs())...)
	probed := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
	if _, err := b.Probe(right, keys, 4, probed, nil); err != nil {
		t.Fatal(err)
	}
	want := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
	if err := want.AppendAll(pre); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendAll(probed); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		what := fmt.Sprintf("gathered, %d workers", workers)
		sameRowsOrdered(t, what, gatherPairs(t, what, left, right, keys, b.Pairs(), workers, pre), want)
	}
	// Every demand shape, probed, gathered and spilled at 1 and 4 workers,
	// is the full output projected onto it.
	hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { return st, nil }}
	for _, shape := range demandShapes(outSchema, keys) {
		spre, swant := project(t, pre, shape), project(t, want, shape)
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("out %v, %d workers", shape, workers)
			out := project(t, spre, shape)
			if _, err := b.Probe(right, keys, workers, out, nil); err != nil {
				t.Fatal(err)
			}
			sameRowsOrdered(t, what+" (probed)", out, swant)
			sameRowsOrdered(t, what+" (gathered)", gatherPairs(t, what, left, right, keys, b.Pairs(), workers, spre), swant)
			var sb Builder
			spilled := project(t, spre, shape)
			if _, _, err := sb.JoinPairSpill(left, right, keys, "t", workers, int64(left.Bytes()/4), 8, 3, spillPart, hooks, spilled, nil); err != nil {
				t.Fatal(err)
			}
			sameRowsOrdered(t, what+" (spilled)", spilled, swant)
		}
	}
}

// TestBuilderArenaReuse: a builder's second table is built out of the
// first one's arrays — larger, smaller, different keys — and must equal a
// fresh independent build each time; independent tables must not share
// anything, so probing many of them at once (what bench/probes.go does)
// is safe. Run under -race.
func TestBuilderArenaReuse(t *testing.T) {
	ls, rs := wideSchemas()
	r := rand.New(rand.NewSource(9))
	type pair struct {
		left, right *tuple.SubTable
		keys        []string
	}
	var pairs []pair
	for i, n := range []int{700, 64, 2048, 0, 300} {
		keys := []string{"k0", "k1", "k2"}[:1+i%3]
		pairs = append(pairs, pair{kernelTable(ls, n, 6, r, 1000), kernelTable(rs, 200+n/2, 6, r, 5000), keys})
	}
	fresh := func(p pair) *tuple.SubTable {
		out, err := Join(p.left, p.right, p.keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	var b Builder
	for i, p := range pairs {
		ht, err := b.Build(p.left, p.keys, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ht.left != p.left {
			t.Fatalf("pair %d: the table is not the one just built", i)
		}
		want := fresh(p)
		for pass := 0; pass < 2; pass++ {
			out := tuple.NewSubTable(want.ID, want.Schema, 0)
			if _, err := b.Probe(p.right, p.keys, 1, out, nil); err != nil {
				t.Fatal(err)
			}
			sameRowsOrdered(t, fmt.Sprintf("pair %d pass %d on the reused builder", i, pass), out, want)
		}
	}

	// Independent tables, all alive at once, each probed from two
	// goroutines at once with ProbeParallel's fresh scratch.
	tables := make([]*HashTable, len(pairs))
	for i, p := range pairs {
		var err error
		if tables[i], err = BuildParallel(p.left, p.keys, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, p := range pairs {
		want := fresh(p)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := tuple.NewSubTable(want.ID, want.Schema, 0)
				if _, err := tables[i].ProbeParallel(p.right, p.keys, 1, 1, out, nil); err != nil {
					t.Error(err)
					return
				}
				if !sameRows(out, want) {
					t.Errorf("independent table %d: concurrent probe differs from a fresh join", i)
				}
			}()
		}
	}
	wg.Wait()
}

// edgeShape is the benchmark grid's IJ edge: one 2 048-row left reused
// over eight 512-row rights, T1(x,y,z,oilp,soil) ⋈ T2(x,y,z,wp,swat) on
// (x,y,z), every right row matching exactly one left row.
func edgeShape() (left *tuple.SubTable, rights []*tuple.SubTable) {
	coord := func(n string) tuple.Attr { return tuple.Attr{Name: n, Kind: tuple.Coord} }
	meas := func(n string) tuple.Attr { return tuple.Attr{Name: n, Kind: tuple.Measure} }
	ls := tuple.NewSchema(coord("x"), coord("y"), coord("z"), meas("oilp"), meas("soil"))
	rs := tuple.NewSchema(coord("x"), coord("y"), coord("z"), meas("wp"), meas("swat"))
	left = tuple.NewSubTable(tuple.ID{Table: 0}, ls, 2048)
	for i := 0; i < 2048; i++ { // a 16×16×8 block
		left.AppendRow(float32(i%16), float32(i/16%16), float32(i/256), float32(i), float32(i)/2)
	}
	for c := 0; c < 8; c++ { // eight 512-row rights, together covering the left twice
		right := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: int32(c)}, rs, 512)
		for i := c * 256; i < c*256+256; i++ {
			for rep := 0; rep < 2; rep++ {
				j := (i*2 + rep) % 2048
				right.AppendRow(float32(j%16), float32(j/16%16), float32(j/256), float32(j)+0.25, float32(j)+0.5)
			}
		}
		rights = append(rights, right)
	}
	return left, rights
}

var edgeKeys = []string{"x", "y", "z"}

// TestJoinPairSteadyStateAllocs is the allocation gate: one left build
// plus one probe per right, through a reused builder, each probe into a
// fresh output (sink mode: the previous batch was handed on), allocates
// the output — its columns, the table and its column list — and a small
// constant, not a dozen build arrays nor an output grown from zero by
// doubling.
func TestJoinPairSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	left, rights := edgeShape()
	outSchema := left.Schema.JoinResult(rights[0].Schema, edgeKeys, "r_")
	var b Builder
	var rows int
	edge := func() {
		if _, err := b.Build(left, edgeKeys, 1, nil); err != nil {
			t.Fatal(err)
		}
		for _, right := range rights {
			out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
			if _, err := b.Probe(right, edgeKeys, 1, out, nil); err != nil {
				t.Fatal(err)
			}
			rows = out.NumRows()
		}
	}
	edge() // warm the arena
	if rows != 512 {
		t.Fatalf("a probe produced %d rows, want 512", rows)
	}
	// Per probe: the output's columns, the SubTable, its column list, and
	// the two range closures (match, gather) handed to runRanges. Per build:
	// the key-index list and the insert closure.
	perProbe := outSchema.NumAttrs() + 4
	const perBuild = 2
	limit := float64(len(rights)*perProbe + perBuild)
	if got := testing.AllocsPerRun(20, edge); got > limit {
		t.Errorf("steady-state build + %d probes: %.0f allocs, want ≤ %.0f (%d per probe output + %d)",
			len(rights), got, limit, perProbe, perBuild)
	}
}

// TestJoinNegativeZeroKey: -0 and +0 are one join key and NaN is none,
// exactly as NestedLoop (float equality) has it, on the exact packings
// (1, 2 attributes), the fold (3) and the spilled join at a cap that
// forces a split; output values keep their own bits.
func TestJoinNegativeZeroKey(t *testing.T) {
	nan := float32(math.NaN())
	coord := func(n string) tuple.Attr { return tuple.Attr{Name: n, Kind: tuple.Coord} }
	ls := tuple.NewSchema(coord("x"), coord("y"), coord("z"), tuple.Attr{Name: "l", Kind: tuple.Measure})
	rs := tuple.NewSchema(coord("x"), coord("y"), coord("z"), tuple.Attr{Name: "r", Kind: tuple.Measure})
	left := tuple.NewSubTable(tuple.ID{}, ls, 0)
	right := tuple.NewSubTable(tuple.ID{}, rs, 0)
	for i := 0; i < 40; i++ { // bulk, so a small cap really splits the build side
		left.AppendRow(float32(1+i), 1, 1, float32(100+i))
	}
	left.AppendRow(negZero, negZero, 0, 1)
	left.AppendRow(0, 0, negZero, 2)
	left.AppendRow(nan, 0, 0, 3)
	right.AppendRow(0, 0, 0, 10)
	right.AppendRow(negZero, negZero, negZero, 20)
	right.AppendRow(nan, 0, 0, 30)
	right.AppendRow(5, 1, 1, 40)
	for nk := 1; nk <= 3; nk++ {
		keys := []string{"x", "y", "z"}[:nk]
		want, err := NestedLoop(left, right, keys)
		if err != nil {
			t.Fatal(err)
		}
		// Both zero rows on each side pair up (4), NaN pairs with nothing,
		// and (5, 1, 1) meets its one partner.
		if want.NumRows() != 5 {
			t.Fatalf("%d keys: reference has %d rows, want 5", nk, want.NumRows())
		}
		got, err := Join(left, right, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRowsOrdered(t, fmt.Sprintf("%d keys, in memory", nk), got, want)

		rts := 0
		hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { rts++; return st, nil }}
		spilled := tuple.NewSubTable(want.ID, want.Schema, 0)
		if _, _, err := JoinPairSpill(left, right, keys, "t", 1, 1, 64, 4, 3, spillPart, hooks, spilled, nil); err != nil {
			t.Fatal(err)
		}
		if rts == 0 {
			t.Fatalf("%d keys: the cap did not force a split", nk)
		}
		sameRowsOrdered(t, fmt.Sprintf("%d keys, spilled", nk), spilled, want)
	}
}
