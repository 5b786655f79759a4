package ij

import (
	"context"
	"sync"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

// TestLeftDecodedOncePerHashTable: under the colenc codec the cache holds
// compressed frames and every decode is a full pass over one. A left
// sub-table is decoded when its hash table is built — once, however many
// edges reuse the table — and a right sub-table once per probe. The cache
// still sees the strict loop's demand sequence: two lookups per edge.
func TestLeftDecodedOncePerHashTable(t *testing.T) {
	grid := partition.D(16, 16, 8)
	p := partition.D(8, 8, 8) // 4 left sub-tables...
	q := partition.D(4, 4, 8) // ...each meeting 4 of the 16 right ones
	ds, err := oilres.Generate(oilres.Config{Grid: grid, LeftPart: p, RightPart: q, StorageNodes: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lefts, rights := grid.Cells()/p.Cells(), grid.Cells()/q.Cells()
	edges := partition.NumEdges(grid, p, q)
	if edges != 16 || lefts != 4 {
		t.Fatalf("shape: %d edges over %d lefts, want 16 over 4", edges, lefts)
	}
	leftDef, err := ds.Catalog.Table("T1")
	if err != nil {
		t.Fatal(err)
	}

	for _, prefetch := range []int{0, 2} {
		cl, err := cluster.New(cluster.Config{
			StorageNodes: 2, ComputeNodes: 2, CacheBytes: 32 << 20, Wire: "colenc",
		}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		decodes := map[tuple.ID]int{}
		testDecoded = func(id tuple.ID) {
			mu.Lock()
			decodes[id]++
			mu.Unlock()
		}
		r := req()
		r.Prefetch = prefetch
		res, err := engine.RunRequest(context.Background(), New(), cl, r)
		testDecoded = nil
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples != grid.Cells() {
			t.Fatalf("prefetch %d: %d tuples, want %d", prefetch, res.Tuples, grid.Cells())
		}
		var leftDecodes, rightDecodes int64
		for id, n := range decodes {
			if id.Table == leftDef.ID {
				leftDecodes += int64(n)
				if n != 1 {
					t.Errorf("prefetch %d: left %v decoded %d times, want once (its hash table is reused)", prefetch, id, n)
				}
			} else {
				rightDecodes += int64(n)
			}
		}
		if leftDecodes != lefts || rightDecodes != edges {
			t.Errorf("prefetch %d: %d left and %d right decodes, want %d (one per hash table) and %d (one per probe)",
				prefetch, leftDecodes, rightDecodes, lefts, edges)
		}
		if res.Join.TuplesBuilt != grid.Cells() {
			t.Errorf("prefetch %d: built %d tuples, want %d: one build per left", prefetch, res.Join.TuplesBuilt, grid.Cells())
		}
		if lookups := res.Cache.Hits + res.Cache.Misses; lookups != 2*edges {
			t.Errorf("prefetch %d: %d demand lookups, want %d: both carriers are still demanded on every edge", prefetch, lookups, 2*edges)
		}
		if res.Cache.Misses > lefts+rights {
			t.Errorf("prefetch %d: %d misses for %d sub-tables", prefetch, res.Cache.Misses, lefts+rights)
		}
	}
}
