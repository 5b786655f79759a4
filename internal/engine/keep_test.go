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

// TestBuildStreamReusesArena: a stream of builds — every left of a
// schedule that misses its pairs — reuses the arena's arrays, so each
// build allocates only its small constant (the key-index list and the
// insert closure), never table arrays.
func TestBuildStreamReusesArena(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	j, _, left := keepJoiner(t, 1<<20)
	build := func() {
		if err := j.Build("", left); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm the arena
	const perBuild = 2
	if got := testing.AllocsPerRun(20, build); got > perBuild {
		t.Errorf("build: %.0f allocs, want ≤ %d: a build must reuse the arena's arrays", got, perBuild)
	}
}

// TestKeepAdmitsIntoFreeRoom: with room to spare a shared run's decoded
// left rows are admitted as they are, charged at their decoded size, and
// a later Keep under the same key leaves them in place. A full cache — one
// frame fills it, the cold_fetch shape — admits nothing, and an exclusive
// run keeps nothing.
func TestKeepAdmitsIntoFreeRoom(t *testing.T) {
	j, frame, left := keepJoiner(t, 64<<20)
	key := cluster.FetchKey{ID: left.ID, Join: cluster.JoinSig(j.Req.JoinAttrs)}
	j.Keep(key, left)
	f, ok := j.cn.Cache.Peek(key)
	if !ok {
		t.Fatal("an empty cache refused the rows")
	}
	if rows, err := f.SubTable(); err != nil || rows != left {
		t.Fatalf("cached rows are not the kept ones (%v)", err)
	}
	if got := j.cn.Cache.Bytes(); got != int64(left.Bytes()) || f.StoredBytes() != left.Bytes() {
		t.Errorf("cache charged %d (entry %d), want the decoded rows' %d", got, f.StoredBytes(), left.Bytes())
	}
	other, err := frame.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	j.Keep(key, other)
	if f, _ = j.cn.Cache.Peek(key); f == nil {
		t.Fatal("a present key's entry was dropped")
	}
	if rows, _ := f.SubTable(); rows != left || j.cn.Cache.Bytes() != int64(left.Bytes()) {
		t.Error("a present key admitted a second copy of the rows")
	}

	j.cn.Cache.Clear()
	j.cn.Cache.Put(cluster.FetchKey{ID: left.ID}, frame, j.Cluster.Config.CacheBytes)
	j.Keep(key, left)
	if _, ok := j.cn.Cache.Peek(key); ok {
		t.Error("a full cache admitted rows")
	}
	j.cn.Cache.Clear()
	j.Req.Shared = false
	if j.Keep(key, left); j.cn.Cache.Len() != 0 {
		t.Error("an exclusive run kept rows that the next run's reset would drop unread")
	}
}
