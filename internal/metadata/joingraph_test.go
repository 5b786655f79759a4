package metadata

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sciview/internal/chunk"
	"sciview/internal/congraph"
)

var xyz = []string{"x", "y", "z"}

// sameGraph reports how g differs from congraph.Build over its chunk sets:
// edges, in order, and the two-stage schedules at nj = 1 and 2.
func sameGraph(g *congraph.Graph, left, right []*chunk.Desc) error {
	want, err := congraph.Build(left, right, xyz)
	if err != nil {
		return err
	}
	if !slices.Equal(g.Left, left) || !slices.Equal(g.Right, right) {
		return fmt.Errorf("graph over %d×%d chunks, want %d×%d", len(g.Left), len(g.Right), len(left), len(right))
	}
	if !slices.Equal(g.Edges, want.Edges) {
		return fmt.Errorf("%d×%d chunks: %d edges, want %d", len(left), len(right), len(g.Edges), len(want.Edges))
	}
	for nj := 1; nj <= 2; nj++ {
		gs, ws := g.Schedules(nj), want.Schedules(nj)
		for j := range ws {
			if !slices.Equal(gs[j], ws[j]) {
				return fmt.Errorf("nj=%d: schedule %d differs", nj, j)
			}
		}
	}
	return nil
}

// twoTables returns a catalog with T1 and T2 over schema3d, each holding
// slabs along z, 10 apart: T1's from z0, T2's from z0+shift. A shift of 5
// makes each T2 slab meet two T1 slabs.
func twoTables(t *testing.T, slabs int, z0, shift float64) (*Catalog, int32, int32) {
	t.Helper()
	c := NewCatalog()
	var ids [2]int32
	for i, name := range []string{"T1", "T2"} {
		def, err := c.CreateTable(name, schema3d())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = def.ID
		for k := 0; k < slabs; k++ {
			if _, err := c.AddChunk(def.ID, slabDesc(def.ID, z0+float64(k*10)+float64(i)*shift)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, ids[0], ids[1]
}

// TestJoinGraphDuringAppends races appends to both tables — one table or
// both per version — against statements that resolve a random z range
// pinned to the version they read and ask for the join graph. Every answer
// must be congraph.Build's over the same chunk sets. Run under -race this
// is the kept graphs' safety check.
func TestJoinGraphDuringAppends(t *testing.T) {
	c, t1, t2 := twoTables(t, 4, 0, 5)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 48; i++ {
			z := float64(40 + i*7)
			var batch []*chunk.Desc
			if i%3 != 1 {
				batch = append(batch, slabDesc(t1, z))
			}
			if i%3 != 0 {
				batch = append(batch, slabDesc(t2, z+3))
			}
			if _, err := c.AppendVersion(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := float64(rng.Intn(400))
				rg := Range{Attrs: []string{"z"}, Lo: []float64{lo}, Hi: []float64{lo + float64(rng.Intn(200))},
					Versions: VersionWindow{Until: c.Version()}}
				left, err := c.ChunksInRange("T1", rg)
				if err != nil {
					t.Error(err)
					return
				}
				right, err := c.ChunksInRange("T2", rg)
				if err != nil {
					t.Error(err)
					return
				}
				g, err := c.JoinGraph(xyz, left, right)
				if err == nil {
					err = sameGraph(g, left, right)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}

// TestJoinGraphPerCatalog: two catalogs with the same table and chunk ids
// but different bounds keep separate graphs, so neither answers with the
// other's edges.
func TestJoinGraphPerCatalog(t *testing.T) {
	a, t1, t2 := twoTables(t, 6, 0, 5)
	b, _, _ := twoTables(t, 6, 0, 1000) // no edge at all
	for _, c := range []*Catalog{a, b, a} {
		left, right := c.Chunks(t1), c.Chunks(t2)
		g, err := c.JoinGraph(xyz, left, right)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameGraph(g, left, right); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadDropsJoinGraphs: Load replaces every chunk, so the graphs over
// the old ones go with them, and the next statement's answer is the new
// chunks'.
func TestLoadDropsJoinGraphs(t *testing.T) {
	c, t1, t2 := twoTables(t, 4, 0, 5)
	if _, err := c.JoinGraph(xyz, c.Chunks(t1), c.Chunks(t2)); err != nil {
		t.Fatal(err)
	}
	other, _, _ := twoTables(t, 5, 3, 1)
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if kept := c.joins.kept(); kept != 0 {
		t.Fatalf("%d join graphs survived Load", kept)
	}
	left, right := c.Chunks(t1), c.Chunks(t2)
	g, err := c.JoinGraph(xyz, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGraph(g, left, right); err != nil {
		t.Fatal(err)
	}
}

// kept counts the graphs the memo holds.
func (m *joinMemo) kept() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.entries {
		if e.g != nil {
			n++
		}
	}
	return n
}

// TestJoinGraphMemo: a repeated chunk-set pair gets the kept graph; the
// same chunks in another order, on other join attributes or past the
// memo's size get Build's answer for exactly what was asked; a caller
// that reuses its slice cannot change a kept graph; an error is not kept.
func TestJoinGraphMemo(t *testing.T) {
	c, t1, t2 := twoTables(t, 12, 0, 5)
	left, right := c.Chunks(t1), c.Chunks(t2)
	g, err := c.JoinGraph(xyz, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.JoinGraph(xyz, slices.Clone(left), slices.Clone(right)); again != g {
		t.Fatal("a repeated chunk-set pair was built again")
	}

	reversed := slices.Clone(right)
	slices.Reverse(reversed)
	if g2, err := c.JoinGraph(xyz, left, reversed); err != nil || g2 == g {
		t.Fatalf("reversed right set: err %v, kept graph reused %v", err, g2 == g)
	} else if err := sameGraph(g2, left, reversed); err != nil {
		t.Fatal(err)
	}
	zOnly := []string{"z"}
	gz, err := c.JoinGraph(zOnly, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := congraph.Build(left, right, zOnly); gz == g || !slices.Equal(gz.Edges, want.Edges) {
		t.Fatalf("join on z: %d edges, want %d", len(gz.Edges), len(want.Edges))
	}

	// More distinct pairs than the memo holds: each answer is still
	// Build's, and the memo stays at its size.
	scratch := make([]*chunk.Desc, 0, len(left))
	for k := 1; k <= 2*joinMemoSize; k++ {
		scratch = append(scratch[:0], left[:1+k%len(left)]...)
		sub := right[k%3:]
		g, err := c.JoinGraph(xyz, scratch, sub)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(scratch)
		// The caller reuses its slice: the kept graph must not see it.
		scratch[0] = right[0]
		if err := sameGraph(g, want, sub); err != nil {
			t.Fatalf("pair %d: %v", k, err)
		}
	}
	if kept := c.joins.kept(); kept != joinMemoSize {
		t.Fatalf("memo holds %d graphs, want %d", kept, joinMemoSize)
	}

	if _, err := c.JoinGraph([]string{"x", "depth"}, left, right); err == nil {
		t.Fatal("join on a missing attribute: no error")
	}
	if _, err := c.JoinGraph([]string{"x", "depth"}, left, right); err == nil {
		t.Fatal("join on a missing attribute, repeated: no error")
	}
}
