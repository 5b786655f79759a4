package ij

import (
	"context"
	"sync"
	"testing"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/hashjoin"
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

// TestFullCacheKeepsFrameDemand: in a cache too small for the working set
// — cold_fetch's shape — a built table is admitted only while the cache
// still has free room and is dropped as soon as a frame needs it, so the
// cache's hits, misses and evictions over two shared runs are exactly
// those of the frame demand replayed through an LRU that never saw a
// table, and the second run, on a full cache, rebuilds every table.
func TestFullCacheKeepsFrameDemand(t *testing.T) {
	grid := partition.D(32, 32, 8)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: partition.D(8, 8, 8), RightPart: partition.D(4, 4, 8), StorageNodes: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	newCluster := func(capacity int64) *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: capacity, Wire: "colenc"}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	in, err := engine.Resolve(ds.Catalog, req())
	if err != nil {
		t.Fatal(err)
	}
	graph, err := in.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sched := buildSchedules(graph.Components(), in.LeftDescs, in.RightDescs, 1)[0]
	ls := side{&in.LeftFilter, cluster.Signature(&in.LeftFilter, in.Project)}
	rs := side{&in.RightFilter, cluster.Signature(&in.RightFilter, in.Project)}

	// Every frame, fetched outside any cache.
	frames := map[cluster.FetchKey]*cluster.Fetched{}
	probe := newCluster(0)
	var leftBytes, rightBytes int
	for _, ed := range sched {
		for _, d := range []struct {
			id tuple.ID
			sd side
			n  *int
		}{{ed.left, ls, &leftBytes}, {ed.right, rs, &rightBytes}} {
			f, err := probe.Fetch(context.Background(), 0, d.id, d.sd.filter, in.Project)
			if err != nil {
				t.Fatal(err)
			}
			frames[cluster.FetchKey{ID: d.id, Sig: d.sd.sig}] = f
			*d.n = max(*d.n, f.StoredBytes())
		}
	}
	// Room for the first left's frame and table, so the first build is
	// admitted, and well under the working set.
	frame := frames[cluster.FetchKey{ID: sched[0].left, Sig: ls.sig}]
	left, err := frame.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	ht, err := hashjoin.BuildParallel(left, req().JoinAttrs, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(leftBytes + cluster.TableBytes(ht, frame) + 2*rightBytes)
	cl := newCluster(capacity)
	ref := cache.NewLRU[cluster.FetchKey, int](capacity)
	for run := 0; run < 2; run++ {
		r := req()
		r.Shared = true
		res, err := engine.RunRequest(context.Background(), New(), cl, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples != grid.Cells() {
			t.Fatalf("run %d: %d tuples", run, res.Tuples)
		}
		if run == 1 && res.Join.TuplesBuilt != grid.Cells() {
			t.Errorf("second run built %d tuples, want every table again (%d): none fits a full cache", res.Join.TuplesBuilt, grid.Cells())
		}
		for _, ed := range sched {
			for _, k := range []cluster.FetchKey{{ID: ed.left, Sig: ls.sig}, {ID: ed.right, Sig: rs.sig}} {
				if _, ok := ref.Get(k); !ok {
					ref.Put(k, 0, int64(frames[k].StoredBytes()))
				}
			}
		}
	}
	got, want := cl.Compute[0].Cache.Stats(), ref.Stats()
	if got != want {
		t.Errorf("cache counts %+v, want the frame-only replay's %+v", got, want)
	}
	if want.Evictions == 0 {
		t.Error("the cache never filled: the test does not exercise a full cache")
	}
}
