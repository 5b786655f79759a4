package engine

import (
	"context"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

// keepJoiner is a joiner on compute node 0 of a one-node cluster whose
// cache holds capacity bytes, with the first left sub-table of the full
// T1 ⋈ T2 join fetched under the colenc wire.
func keepJoiner(t *testing.T, capacity int64) (*Joiner, *cluster.Fetched, *tuple.SubTable) {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(16, 16, 8), LeftPart: partition.D(8, 8, 8), RightPart: partition.D(4, 4, 8),
		StorageNodes: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{StorageNodes: 1, ComputeNodes: 1, CacheBytes: capacity, Wire: "colenc"}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Resolve(cl.Catalog, Request{LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"}, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := cl.Fetch(context.Background(), 0, in.LeftDescs[0].ID(), &in.LeftFilter, in.Project)
	if err != nil {
		t.Fatal(err)
	}
	left, err := frame.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	j := &Joiner{Run: &Run{Inputs: *in, Cluster: cl, Obs: &ObsCollector{}}, Node: "joiner-0", cn: cl.Compute[0]}
	return j, frame, left
}

// TestKeepRefusedBuildAllocatesNoTable: a build the node cache refuses —
// here a cache filled by one frame, the cold_fetch shape — stays in the
// joiner's arena, so the next build reuses its arrays and a steady stream
// of refused builds allocates only the build's small constant (the
// key-index list and the insert closure), never table arrays.
func TestKeepRefusedBuildAllocatesNoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity = 1 << 20
	j, frame, left := keepJoiner(t, capacity)
	j.cn.Cache.Put(cluster.FetchKey{ID: left.ID}, frame, capacity) // full
	key := cluster.FetchKey{ID: left.ID, Join: cluster.JoinSig(j.Req.JoinAttrs)}
	build := func() {
		ht, err := j.Build("", left)
		if err != nil {
			t.Fatal(err)
		}
		if j.Keep(key, frame, ht) != ht {
			t.Fatal("a full cache admitted a table")
		}
	}
	build() // warm the arena
	const perBuild = 2
	if got := testing.AllocsPerRun(20, build); got > perBuild {
		t.Errorf("refused build: %.0f allocs, want ≤ %d: a refused table must stay in the arena", got, perBuild)
	}
	if _, ok := j.cn.Cache.Peek(key); ok {
		t.Error("refused table is resident")
	}
}

// TestKeepAdmitsIntoFreeRoom: with room to spare a shared run's table is
// admitted at cluster.TableBytes and leaves the arena — Keep returns the
// detached table, which answers probes as the arena table did — and the
// next build does not disturb it. An exclusive run keeps nothing.
func TestKeepAdmitsIntoFreeRoom(t *testing.T) {
	j, frame, left := keepJoiner(t, 64<<20)
	key := cluster.FetchKey{ID: left.ID, Join: cluster.JoinSig(j.Req.JoinAttrs)}
	ht, err := j.Build("", left)
	if err != nil {
		t.Fatal(err)
	}
	size := cluster.TableBytes(ht, frame)
	kept := j.Keep(key, frame, ht)
	if kept == ht {
		t.Fatal("an empty cache refused the table")
	}
	f, ok := j.cn.Cache.Peek(key)
	if !ok || f.Table() != kept {
		t.Fatal("admitted table is not the cached one")
	}
	if got := j.cn.Cache.Bytes(); got != int64(size) || f.StoredBytes() != size {
		t.Errorf("cache charged %d (entry %d), want TableBytes %d", got, f.StoredBytes(), size)
	}
	if size <= left.Bytes() {
		t.Errorf("TableBytes %d does not cover the decoded rows (%d) of an encoded frame plus arrays", size, left.Bytes())
	}
	// The arena builds afresh; the kept table still probes to every row.
	if _, err := j.Build("", left); err != nil {
		t.Fatal(err)
	}
	out := tuple.NewSubTable(tuple.ID{Table: -1}, left.Schema.JoinResult(left.Schema, j.Req.JoinAttrs, "r_"), 0)
	if m, err := kept.ProbeParallel(left, j.Req.JoinAttrs, 1, 1, out, nil); err != nil || m != left.NumRows() {
		t.Errorf("kept table self-join: %d matches, %v; want %d", m, err, left.NumRows())
	}
	if j.Keep(key, frame, ht) != ht {
		t.Error("a present key admitted a second table")
	}
	j.cn.Cache.Clear()
	j.Req.Shared = false
	if j.Keep(key, frame, ht) != ht || j.cn.Cache.Len() != 0 {
		t.Error("an exclusive run kept a table that the next run's reset would drop unprobed")
	}
}
