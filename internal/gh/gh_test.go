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
	"sciview/internal/simio"
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

func TestHashFunctionsIndependent(t *testing.T) {
	// Records landing on ONE joiner via h1 must still spread across
	// buckets via h2 — a correlated pair would put each joiner's records
	// into a single bucket, breaking the fits-in-memory goal.
	const nj, nb = 4, 8
	perBucket := make(map[int]map[int]int) // joiner -> bucket -> count
	n := 0
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			key := uint64(math.Float32bits(float32(x)))<<32 | uint64(math.Float32bits(float32(y)))
			j := int(h1(key) % nj)
			k := int(h2(key) % nb)
			if perBucket[j] == nil {
				perBucket[j] = make(map[int]int)
			}
			perBucket[j][k]++
			n++
		}
	}
	for j, buckets := range perBucket {
		if len(buckets) < nb {
			t.Errorf("joiner %d uses only %d of %d buckets", j, len(buckets), nb)
		}
		expect := float64(n) / nj / nb
		for k, c := range buckets {
			if float64(c) < expect*0.5 || float64(c) > expect*1.5 {
				t.Errorf("joiner %d bucket %d: %d records, expected ≈%.0f", j, k, c, expect)
			}
		}
	}
}

func TestPartitionerRoundTrip(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	disk := simio.NewDisk(simio.NewMemStore(), 0, 0)
	p := newPartitioner(scratch.NewManager(disk, "t", "test", nil, nil), "L", schema, 4, 8) // tiny flush threshold
	batch := tuple.NewSubTable(tuple.ID{}, schema, 0)
	for i := 0; i < 100; i++ {
		batch.AppendRow(float32(i), float32(i*3), float32(i)/10)
	}
	keyIdxs, _ := schema.Indexes([]string{"x", "y"})
	if err := p.add(batch, keyIdxs); err != nil {
		t.Fatal(err)
	}
	if err := p.flushAll(); err != nil {
		t.Fatal(err)
	}
	// All rows must come back, each exactly once, in the right bucket.
	seen := make(map[float32]bool)
	var total int64
	for k := 0; k < 4; k++ {
		st, err := p.readBucket(k)
		if err != nil {
			t.Fatal(err)
		}
		if int64(st.NumRows()) != p.rows[k] {
			t.Errorf("bucket %d: read %d rows, accounted %d", k, st.NumRows(), p.rows[k])
		}
		total += int64(st.NumRows())
		for r := 0; r < st.NumRows(); r++ {
			x := st.Value(r, 0)
			if seen[x] {
				t.Fatalf("row x=%v appeared twice", x)
			}
			seen[x] = true
			key := st.Key(r, keyIdxs)
			if int(h2(key)%4) != k {
				t.Errorf("row x=%v in wrong bucket %d", x, k)
			}
		}
		if err := p.deleteBucket(k); err != nil {
			t.Fatal(err)
		}
	}
	if total != 100 {
		t.Errorf("round trip lost rows: %d", total)
	}
}

func TestEmptyBucketRead(t *testing.T) {
	schema := tuple.NewSchema(tuple.Attr{Name: "x", Kind: tuple.Coord})
	disk := simio.NewDisk(simio.NewMemStore(), 0, 0)
	p := newPartitioner(scratch.NewManager(disk, "t", "test", nil, nil), "L", schema, 2, 8)
	st, err := p.readBucket(1)
	if err != nil || st.NumRows() != 0 {
		t.Errorf("empty bucket: %v rows=%d", err, st.NumRows())
	}
}

func TestDecodeRowsErrors(t *testing.T) {
	schema := tuple.NewSchema(tuple.Attr{Name: "x", Kind: tuple.Coord}, tuple.Attr{Name: "y", Kind: tuple.Coord})
	if _, err := scratch.DecodeRows(schema, make([]byte, 7), tuple.ID{Table: -1}); err == nil {
		t.Error("misaligned bucket bytes accepted")
	}
	st, err := scratch.DecodeRows(schema, make([]byte, 16), tuple.ID{Table: -1, Chunk: 3})
	if err != nil || st.NumRows() != 2 || st.ID.Chunk != 3 {
		t.Errorf("decode: %v rows=%d id=%v", err, st.NumRows(), st.ID)
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
	// Exactly one spill+read of the full volume: no recursion traffic.
	want := int64(8 * 8 * 4 * 32)
	if res.Traffic.ScratchBytesWritten != want {
		t.Errorf("spill = %d, want %d", res.Traffic.ScratchBytesWritten, want)
	}
}
