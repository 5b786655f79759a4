package ij

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// TestLeftDecodedOncePerLeft: under the colenc codec the cache holds
// compressed frames and every decode is a full pass over one. A left
// sub-table is decoded once, however many consecutive edges read its rows
// and the hash table built over them, and a right sub-table once per
// probe. The cache still sees the strict loop's demand sequence: two
// lookups per edge.
func TestLeftDecodedOncePerLeft(t *testing.T) {
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
					t.Errorf("prefetch %d: left %v decoded %d times, want once (its rows serve all its edges)", prefetch, id, n)
				}
			} else {
				rightDecodes += int64(n)
			}
		}
		if leftDecodes != lefts || rightDecodes != edges {
			t.Errorf("prefetch %d: %d left and %d right decodes, want %d (one per left) and %d (one per probe)",
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
// — cold_fetch's shape — a left's decoded rows are admitted only while the
// cache still has free room and are dropped as soon as a frame needs it,
// so the cache's hits, misses and evictions over two shared runs are
// exactly those of the frame demand replayed through an LRU that never
// saw kept rows, and the second run, on a full cache, rebuilds every
// table.
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
	sched := graph.Schedules(1)[0]
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
		}{{ed.Left, ls, &leftBytes}, {ed.Right, rs, &rightBytes}} {
			f, err := probe.Fetch(context.Background(), 0, d.id, d.sd.filter, in.Project)
			if err != nil {
				t.Fatal(err)
			}
			frames[cluster.FetchKey{ID: d.id, Sig: d.sd.sig}] = f
			*d.n = max(*d.n, f.StoredBytes())
		}
	}
	// Room for the first left's frame and decoded rows, so those rows are
	// admitted, and well under the working set.
	left, err := frames[cluster.FetchKey{ID: sched[0].Left, Sig: ls.sig}].SubTable()
	if err != nil {
		t.Fatal(err)
	}
	capacity := int64(leftBytes + left.Bytes() + 2*rightBytes)
	cl := newCluster(capacity)
	ref := cache.NewLRU[cluster.FetchKey, int](capacity)
	var got cache.Stats
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
		got.Hits += res.Cache.Hits
		got.Misses += res.Cache.Misses
		got.Evictions += res.Cache.Evictions
		for _, ed := range sched {
			for _, k := range []cluster.FetchKey{{ID: ed.Left, Sig: ls.sig}, {ID: ed.Right, Sig: rs.sig}} {
				if _, ok := ref.Get(k); !ok {
					ref.Put(k, 0, int64(frames[k].StoredBytes()))
				}
			}
		}
	}
	want := ref.Stats()
	if got != want {
		t.Errorf("cache counts %+v, want the frame-only replay's %+v", got, want)
	}
	if want.Evictions == 0 {
		t.Error("the cache never filled: the test does not exercise a full cache")
	}
}

// TestRightPredicateFindsKeptLefts: a second shared statement that changes
// only a predicate on a right-only attribute shares the first one's left
// keys — same left filter, projection and join attributes — but not its
// right frames' signature, so it misses every edge's pairs and finds
// every left's kept rows. It decodes no left, builds every left's table
// over the kept rows, probes every edge, and returns an exclusive run's
// rows.
func TestRightPredicateFindsKeptLefts(t *testing.T) {
	grid := partition.D(16, 16, 8)
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: partition.D(8, 8, 8), RightPart: partition.D(4, 4, 8), StorageNodes: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	leftDef, err := ds.Catalog.Table("T1")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 32 << 20, Wire: "colenc",
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	first := req()
	first.Shared = true
	if _, err := engine.RunRequest(context.Background(), New(), cl, first); err != nil {
		t.Fatal(err)
	}

	second := req()
	second.Filter = metadata.Range{Attrs: []string{"wp"}, Lo: []float64{0}, Hi: []float64{0.5}}
	second.Shared, second.Collect = true, true
	rec := trace.New()
	second.Trace = rec
	var mu sync.Mutex
	leftDecodes := 0
	testDecoded = func(id tuple.ID) {
		mu.Lock()
		defer mu.Unlock()
		if id.Table == leftDef.ID {
			leftDecodes++
		}
	}
	res, err := engine.RunRequest(context.Background(), New(), cl, second)
	testDecoded = nil
	if err != nil {
		t.Fatal(err)
	}
	if leftDecodes != 0 {
		t.Errorf("%d left decodes, want none: every left's rows are kept", leftDecodes)
	}
	var builds, probes, gathers int
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindBuild:
			builds++
		case e.Kind == trace.KindProbe && e.Items > 0:
			probes++
		case e.Kind == trace.KindProbe:
			gathers++
		}
	}
	lefts := int(grid.Cells() / partition.D(8, 8, 8).Cells())
	if edges := int(res.UnitsJoined); builds != lefts || probes != edges || gathers != 0 {
		t.Errorf("%d builds, %d probes and %d gathers over %d lefts and %d edges, want every left built and every edge probed",
			builds, probes, gathers, lefts, edges)
	}
	if res.Join.TuplesBuilt != grid.Cells() {
		t.Errorf("built %d tuples, want every left's %d", res.Join.TuplesBuilt, grid.Cells())
	}
	if res.Tuples == 0 || res.Tuples == grid.Cells() {
		t.Fatalf("%d tuples: the predicate does not filter", res.Tuples)
	}
	ex := second
	ex.Shared, ex.Trace = false, nil
	exRes, err := engine.RunRequest(context.Background(), New(), cl, ex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCollected(res.Collected), encodeCollected(exRes.Collected)) {
		t.Error("rows differ from an exclusive run's")
	}
}
