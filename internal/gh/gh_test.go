package gh

import (
	"context"
	"math"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

func makeCluster(t *testing.T, grid, p, q partition.Dims, ns, nj int) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: p, RightPart: q, StorageNodes: ns, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: ns, ComputeNodes: nj, CacheBytes: 32 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func req() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
	}
}

func TestName(t *testing.T) {
	if New().Name() != "gh" {
		t.Error("name wrong")
	}
}

// TestHashFunctionsIndependent: every hash partitioning applied to one
// set of keys must spread the keys one decision kept together over the
// next decision's whole range — route (h1) × bucket (h2), bucket × each
// depth of the overflow split that repartitions a bucket's build side, and
// bucket or split × the partitions of the hash table built over it. A
// correlated pair would put a joiner's records in few buckets, a bucket's
// records in few split partitions, or a bucket's build in few table
// partitions, breaking the fits-in-memory goal or the parallel build.
func TestHashFunctionsIndependent(t *testing.T) {
	const nj, nb, fanout, nparts = 4, 8, 8, 8
	var keys []uint64
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			keys = append(keys, uint64(math.Float32bits(float32(x)))<<32|uint64(math.Float32bits(float32(y))))
		}
	}
	bucket := func(k uint64) int { return int(tuple.Mix(k, tuple.SaltBucket) % nb) }
	split := func(d uint64) func(uint64) int {
		return func(k uint64) int { return int(tuple.Mix(k, tuple.SaltSplit(d)) % fanout) }
	}
	// The hash table's partition is the low bits of its hash (nparts is a
	// power of two, as hashjoin's numParts makes it).
	tablePart := func(k uint64) int { return int(tuple.Mix(k, tuple.SaltTable) & (nparts - 1)) }
	pairs := []struct {
		name         string
		outer, inner func(uint64) int
		nOuter, nIn  int
	}{
		{"route×bucket", func(k uint64) int { return route(k, nj) }, bucket, nj, nb},
		{"bucket×split0", bucket, split(0), nb, fanout},
		{"split0×split1", split(0), split(1), fanout, fanout},
		{"split1×split2", split(1), split(2), fanout, fanout},
		{"bucket×table-partition", bucket, tablePart, nb, nparts},
		{"split0×table-partition", split(0), tablePart, fanout, nparts},
	}
	for _, pr := range pairs {
		occ := make(map[int]map[int]int) // outer class -> inner class -> count
		for _, k := range keys {
			o := pr.outer(k)
			if occ[o] == nil {
				occ[o] = make(map[int]int)
			}
			occ[o][pr.inner(k)]++
		}
		if len(occ) != pr.nOuter {
			t.Errorf("%s: keys reach %d of %d outer classes", pr.name, len(occ), pr.nOuter)
		}
		expect := float64(len(keys)) / float64(pr.nOuter*pr.nIn)
		for o, in := range occ {
			if len(in) < pr.nIn {
				t.Errorf("%s: outer class %d uses only %d of %d inner classes", pr.name, o, len(in), pr.nIn)
			}
			for i, c := range in {
				if float64(c) < expect*0.5 || float64(c) > expect*1.5 {
					t.Errorf("%s: class %d/%d holds %d keys, expected ≈%.0f", pr.name, o, i, c, expect)
				}
			}
		}
	}
}

func TestSkewedKeysSingleBucket(t *testing.T) {
	// All records share one (x,y): h1 sends everything to one joiner and
	// h2 to one bucket; the join must still be correct (many-to-many).
	schemaL := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "a", Kind: tuple.Measure},
	)
	schemaR := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "b", Kind: tuple.Measure},
	)
	// Build a custom catalog via the oilres-independent path: hand-roll
	// chunks through a builder-like flow using the cluster test helper is
	// overkill — instead reuse oilres with a 1-cell grid to force skew.
	_ = schemaL
	_ = schemaR
	cl := makeCluster(t, partition.D(1, 1, 4), partition.D(1, 1, 2), partition.D(1, 1, 4), 1, 2)
	res, err := engine.RunRequest(context.Background(), New(), cl, engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y"}, // joins every z with every z: 16
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 16 {
		t.Errorf("skewed join tuples = %d, want 16", res.Tuples)
	}
}

func TestDefaultBucketsScaleWithData(t *testing.T) {
	small := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 1, 1)
	e := New()
	leftDef, _ := small.Catalog.Table("T1")
	rightDef, _ := small.Catalog.Table("T2")
	b := e.defaultBuckets(small, leftDef, rightDef)
	if b < 4 {
		t.Errorf("buckets = %d, want >= 4", b)
	}
	// 10x the data per joiner → more buckets once above the 1MiB target.
	big := makeCluster(t, partition.D(128, 128, 32), partition.D(16, 16, 8), partition.D(16, 16, 8), 1, 1)
	leftDef, _ = big.Catalog.Table("T1")
	rightDef, _ = big.Catalog.Table("T2")
	b2 := e.defaultBuckets(big, leftDef, rightDef)
	if b2 <= b {
		t.Errorf("buckets did not grow with data: %d vs %d", b2, b)
	}
}

func TestScratchCleanedAfterRun(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	if _, err := engine.RunRequest(context.Background(), New(), cl, req()); err != nil {
		t.Fatal(err)
	}
	for j, cn := range cl.Compute {
		names, err := cn.Scratch.Store().List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 0 {
			t.Errorf("joiner %d scratch not cleaned: %v", j, names)
		}
	}
}

func TestPhasesReported(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 1, 1)
	res, err := engine.RunRequest(context.Background(), New(), cl, req())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases["partition"] <= 0 || res.Phases["bucketjoin"] <= 0 {
		t.Errorf("phases = %v", res.Phases)
	}
	if res.Elapsed < res.Phases["partition"] {
		t.Error("total less than partition phase")
	}
}

func TestOverflowRecursionCorrectness(t *testing.T) {
	// A tiny memory cap forces every bucket pair to repartition
	// recursively; the join result must be unchanged.
	cl := makeCluster(t, partition.D(16, 16, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	base, err := engine.RunRequest(context.Background(), New(), cl, req())
	if err != nil {
		t.Fatal(err)
	}
	over := req()
	over.MemoryBudget = 512 * 2 * 2 // 512 bytes per bucket side; buckets are KBs: guaranteed overflow
	res, err := engine.RunRequest(context.Background(), New(), cl, over)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != base.Tuples {
		t.Errorf("overflow join tuples = %d, want %d", res.Tuples, base.Tuples)
	}
	// The recursion pays real spill I/O: strictly more scratch traffic.
	if res.Traffic.ScratchBytesWritten <= base.Traffic.ScratchBytesWritten {
		t.Errorf("overflow spilled %d bytes, base %d — recursion should cost extra I/O",
			res.Traffic.ScratchBytesWritten, base.Traffic.ScratchBytesWritten)
	}
}

func TestOverflowDuplicateKeysFallback(t *testing.T) {
	// All records share (x,y): no hash can split them, so recursion must
	// hit the depth cap and fall back to an in-memory join (not loop).
	cl := makeCluster(t, partition.D(1, 1, 8), partition.D(1, 1, 4), partition.D(1, 1, 4), 1, 1)
	res, err := engine.RunRequest(context.Background(), New(), cl, engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y"},
		MemoryBudget: 16 * 2 * 1, // 16 bytes per bucket side: smaller than one record batch
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 left × 8 right rows all matching on (x,y) = 64 results.
	if res.Tuples != 64 {
		t.Errorf("fallback join tuples = %d, want 64", res.Tuples)
	}
}

func TestOverflowDisabledByDefault(t *testing.T) {
	cl := makeCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 1, 1)
	res, err := engine.RunRequest(context.Background(), New(), cl, req()) // MemoryBudget = 0
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one spill of the full volume: no recursion traffic. One
	// storage slot and one joiner leave one block per non-empty bucket
	// and side; the default 4 buckets all fill at this size.
	want := int64(8*8*4*32 + 2*4*scratch.BlockHeader)
	if res.Traffic.ScratchBytesWritten != want {
		t.Errorf("spill = %d, want %d", res.Traffic.ScratchBytesWritten, want)
	}
}
