package congraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

func schemaXYZ(measure string) tuple.Schema {
	return tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
		tuple.Attr{Name: measure, Kind: tuple.Measure},
	)
}

// gridDescs builds chunk descriptors for a regular partitioning. Bounds are
// inclusive cell ranges [lo, hi-1], so adjacent blocks do not touch.
func gridDescs(table int32, spec partition.Spec, measure string) []*chunk.Desc {
	schema := schemaXYZ(measure)
	n := int(spec.NumChunks())
	out := make([]*chunk.Desc, n)
	for id := 0; id < n; id++ {
		bx, by, bz := spec.ChunkCoords(id)
		lo, hi := spec.CellRange(bx, by, bz)
		out[id] = &chunk.Desc{
			Table: table,
			Chunk: int32(id),
			Attrs: schema.Attrs,
			Rows:  int(spec.TuplesPerChunk()),
			Bounds: bbox.New(
				[]float64{float64(lo.X), float64(lo.Y), float64(lo.Z), 0},
				[]float64{float64(hi.X - 1), float64(hi.Y - 1), float64(hi.Z - 1), 1},
			),
		}
	}
	return out
}

func TestBuildIdenticalPartitions(t *testing.T) {
	g := partition.D(16, 16, 8)
	p := partition.D(8, 8, 8)
	spec := partition.Spec{Grid: g, Part: p}
	left := gridDescs(0, spec, "oilp")
	right := gridDescs(1, spec, "wp")
	gr, err := Build(left, right, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	// Identical partitions: each chunk pairs with exactly its twin.
	if gr.NumEdges() != int(spec.NumChunks()) {
		t.Fatalf("n_e = %d, want %d", gr.NumEdges(), spec.NumChunks())
	}
	for _, e := range gr.Edges {
		if e.Left != e.Right {
			t.Fatalf("unexpected edge %v", e)
		}
	}
	comps := gr.Components()
	if len(comps) != int(spec.NumChunks()) {
		t.Fatalf("%d components, want %d", len(comps), spec.NumChunks())
	}
	for _, c := range comps {
		if len(c.Lefts) != 1 || len(c.Rights) != 1 || len(c.Edges) != 1 {
			t.Fatalf("component shape wrong: %+v", c)
		}
	}
}

func TestBuildMatchesFormulas(t *testing.T) {
	g := partition.D(16, 16, 8)
	cases := []struct{ p, q partition.Dims }{
		{partition.D(8, 8, 8), partition.D(4, 4, 8)},
		{partition.D(4, 16, 8), partition.D(16, 4, 8)},
		{partition.D(2, 2, 2), partition.D(8, 8, 8)},
		{partition.D(16, 16, 8), partition.D(1, 16, 8)},
	}
	for _, tc := range cases {
		left := gridDescs(0, partition.Spec{Grid: g, Part: tc.p}, "oilp")
		right := gridDescs(1, partition.Spec{Grid: g, Part: tc.q}, "wp")
		gr, err := Build(left, right, []string{"x", "y", "z"})
		if err != nil {
			t.Fatal(err)
		}
		wantEdges := partition.NumEdges(g, tc.p, tc.q)
		if int64(gr.NumEdges()) != wantEdges {
			t.Errorf("p=%v q=%v: n_e = %d, want %d", tc.p, tc.q, gr.NumEdges(), wantEdges)
		}
		comps := gr.Components()
		wantComps := partition.NumComponents(g, tc.p, tc.q)
		if int64(len(comps)) != wantComps {
			t.Errorf("p=%v q=%v: N_C = %d, want %d", tc.p, tc.q, len(comps), wantComps)
		}
		a := partition.LeftPerComponent(tc.p, tc.q)
		b := partition.RightPerComponent(tc.p, tc.q)
		ec := partition.EdgesPerComponent(tc.p, tc.q)
		for _, c := range comps {
			if int64(len(c.Lefts)) != a || int64(len(c.Rights)) != b || int64(len(c.Edges)) != ec {
				t.Errorf("p=%v q=%v: component (a=%d,b=%d,e=%d), want (%d,%d,%d)",
					tc.p, tc.q, len(c.Lefts), len(c.Rights), len(c.Edges), a, b, ec)
			}
		}
	}
}

func TestRightDegrees(t *testing.T) {
	g := partition.D(8, 8, 8)
	// Left blocks twice the size of right: each right overlaps exactly 1
	// left; each left overlaps 8 rights.
	left := gridDescs(0, partition.Spec{Grid: g, Part: partition.D(8, 8, 8)}, "oilp")
	right := gridDescs(1, partition.Spec{Grid: g, Part: partition.D(4, 4, 4)}, "wp")
	gr, err := Build(left, right, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range gr.RightDegrees() {
		if d != 1 {
			t.Errorf("right %d degree = %d, want 1", i, d)
		}
	}
	if avg := gr.AvgRightDegree(); avg != 1 {
		t.Errorf("avg right degree = %g", avg)
	}
}

func TestBuildErrors(t *testing.T) {
	g := partition.Spec{Grid: partition.D(8, 8, 8), Part: partition.D(8, 8, 8)}
	descs := gridDescs(0, g, "oilp")
	if _, err := Build(descs, descs, nil); err == nil {
		t.Error("no join attrs should fail")
	}
	if _, err := Build(descs, descs, []string{"w"}); err == nil {
		t.Error("unknown join attr should fail")
	}
}

func TestEmptyGraph(t *testing.T) {
	gr, err := Build(nil, nil, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumEdges() != 0 || len(gr.Components()) != 0 || gr.AvgRightDegree() != 0 {
		t.Error("empty graph should have no edges/components")
	}
}

func TestDisjointTablesNoEdges(t *testing.T) {
	// Right chunks offset beyond the left grid: no overlaps.
	spec := partition.Spec{Grid: partition.D(8, 8, 8), Part: partition.D(4, 4, 4)}
	left := gridDescs(0, spec, "oilp")
	right := gridDescs(1, spec, "wp")
	for _, d := range right {
		for k := 0; k < 3; k++ {
			d.Bounds.Lo[k] += 100
			d.Bounds.Hi[k] += 100
		}
	}
	gr, err := Build(left, right, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumEdges() != 0 {
		t.Errorf("n_e = %d, want 0", gr.NumEdges())
	}
}

// TestPropComponentsPartitionEdges: components partition the edge set, and
// every edge's endpoints are inside its component.
func TestPropComponentsPartitionEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := partition.D(16, 16, 8)
		pow := func(limit int) int {
			v := 1
			for v*2 <= limit && r.Intn(2) == 0 {
				v *= 2
			}
			return v
		}
		p := partition.D(pow(16), pow(16), pow(8))
		q := partition.D(pow(16), pow(16), pow(8))
		left := gridDescs(0, partition.Spec{Grid: g, Part: p}, "oilp")
		right := gridDescs(1, partition.Spec{Grid: g, Part: q}, "wp")
		gr, err := Build(left, right, []string{"x", "y", "z"})
		if err != nil {
			return false
		}
		comps := gr.Components()
		total := 0
		for _, c := range comps {
			total += len(c.Edges)
			inL := make(map[int]bool)
			inR := make(map[int]bool)
			for _, l := range c.Lefts {
				inL[l] = true
			}
			for _, rr := range c.Rights {
				inR[rr] = true
			}
			for _, e := range c.Edges {
				if !inL[e.Left] || !inR[e.Right] {
					return false
				}
			}
		}
		return total == gr.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBuildMatchesBruteForce checks Build against an O(L·R) scan of every
// pair on random boxes that are unaligned, touch at a shared bound or have
// zero width, joined on one to three attributes in any order: the edge
// lists must be equal, in (left, right) order.
func TestBuildMatchesBruteForce(t *testing.T) {
	schema := schemaXYZ("m")
	rng := rand.New(rand.NewSource(5))
	bound := func() (lo, hi float64) {
		// Integer bounds make touching boxes common; a quarter of the
		// boxes are points along the axis, a quarter unaligned.
		lo = float64(rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			return lo, lo
		case 1:
			lo += rng.Float64()
			return lo, lo + rng.Float64()*6
		}
		return lo, lo + float64(1+rng.Intn(5))
	}
	descs := func(table int32, n int) []*chunk.Desc {
		out := make([]*chunk.Desc, n)
		for i := range out {
			lo, hi := make([]float64, 4), make([]float64, 4)
			for a := range lo {
				lo[a], hi[a] = bound()
			}
			out[i] = &chunk.Desc{Table: table, Chunk: int32(i), Attrs: schema.Attrs, Rows: 1, Bounds: bbox.New(lo, hi)}
		}
		return out
	}
	for trial := range 60 {
		attrs := []string{"x", "y", "z"}
		rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		attrs = attrs[:1+trial%3]
		left, right := descs(0, rng.Intn(80)), descs(1, rng.Intn(300))
		gr, err := Build(left, right, attrs)
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := schema.Indexes(attrs)
		var want []Edge
		for li, l := range left {
			for ri, r := range right {
				overlap := true
				for _, a := range idx {
					if l.Bounds.Lo[a] > r.Bounds.Hi[a] || r.Bounds.Lo[a] > l.Bounds.Hi[a] {
						overlap = false
					}
				}
				if overlap {
					want = append(want, Edge{Left: li, Right: ri})
				}
			}
		}
		if !slices.Equal(gr.Edges, want) {
			t.Fatalf("trial %d (join on %v, %d×%d boxes): %d edges, want %d (first 10: %v vs %v)",
				trial, attrs, len(left), len(right), len(gr.Edges), len(want),
				gr.Edges[:min(10, len(gr.Edges))], want[:min(10, len(want))])
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	g := partition.D(64, 64, 32)
	left := gridDescs(0, partition.Spec{Grid: g, Part: partition.D(8, 8, 8)}, "oilp")
	right := gridDescs(1, partition.Spec{Grid: g, Part: partition.D(4, 4, 8)}, "wp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(left, right, []string{"x", "y", "z"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(left)+len(right)), "chunks")
}

func BenchmarkComponents(b *testing.B) {
	g := partition.D(64, 64, 32)
	left := gridDescs(0, partition.Spec{Grid: g, Part: partition.D(8, 8, 8)}, "oilp")
	right := gridDescs(1, partition.Spec{Grid: g, Part: partition.D(4, 4, 8)}, "wp")
	gr, err := Build(left, right, []string{"x", "y", "z"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comps := gr.Components(); len(comps) == 0 {
			b.Fatal("no components")
		}
	}
}
