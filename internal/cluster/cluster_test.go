package cluster

import (
	"context"
	"testing"
	"time"

	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/tuple"
)

func testDataset(t *testing.T, nodes int) *oilres.Dataset {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(8, 8, 4),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(4, 4, 4),
		StorageNodes: nodes,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func build(t *testing.T, cfg Config, ds *oilres.Dataset) *Cluster {
	t.Helper()
	cl, err := New(cfg, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// fetchRows is Fetch(...).SubTable(): the decoded rows of one fetch, with
// an optional pushed-down projection.
func fetchRows(cl *Cluster, computeID int, id tuple.ID, filter *metadata.Range, project ...[]string) (*tuple.SubTable, error) {
	var proj []string
	if len(project) > 0 {
		proj = project[0]
	}
	f, err := cl.Fetch(context.Background(), computeID, id, filter, proj)
	if err != nil {
		return nil, err
	}
	return f.SubTable()
}

func TestNewValidation(t *testing.T) {
	ds := testDataset(t, 2)
	if _, err := New(Config{StorageNodes: 0, ComputeNodes: 1}, ds.Catalog, nil); err == nil {
		t.Error("zero storage nodes should fail")
	}
	if _, err := New(Config{StorageNodes: 3, ComputeNodes: 1}, ds.Catalog, ds.Stores); err == nil {
		t.Error("store count mismatch should fail")
	}
}

func TestFetch(t *testing.T) {
	ds := testDataset(t, 2)
	cl := build(t, Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 1 << 20}, ds)
	before := cl.Account()
	st, err := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 64 {
		t.Errorf("rows = %d, want 64", st.NumRows())
	}
	// Counters: storage disk read + both NICs.
	tr := cl.Account().Sub(before).Traffic
	if tr.StorageBytesRead != int64(st.Bytes()) {
		t.Errorf("storage read = %d, want %d", tr.StorageBytesRead, st.Bytes())
	}
	if tr.NetBytesToCompute != int64(st.Bytes()) {
		t.Errorf("net to compute = %d, want %d", tr.NetBytesToCompute, st.Bytes())
	}
}

func TestFetchWithFilter(t *testing.T) {
	ds := testDataset(t, 2)
	cl := build(t, Config{StorageNodes: 2, ComputeNodes: 1}, ds)
	st, err := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 0}, &metadata.Range{
		Attrs: []string{"z"}, Lo: []float64{0}, Hi: []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 16 {
		t.Errorf("filtered rows = %d, want 16", st.NumRows())
	}
}

func TestFetchErrors(t *testing.T) {
	ds := testDataset(t, 2)
	cl := build(t, Config{StorageNodes: 2, ComputeNodes: 1}, ds)
	if _, err := fetchRows(cl, 0, tuple.ID{Table: 9, Chunk: 0}, nil); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := fetchRows(cl, 5, tuple.ID{Table: ds.Left.ID, Chunk: 0}, nil); err == nil {
		t.Error("unknown compute node should fail")
	}
}

func TestNetAggregateBw(t *testing.T) {
	cfg := Config{StorageNodes: 5, ComputeNodes: 3, NetBw: 100}
	if got := cfg.NetAggregateBw(); got != 300 {
		t.Errorf("NetAggregateBw = %g, want 300", got)
	}
	cfg.NetBw = 0
	if got := cfg.NetAggregateBw(); got != 0 {
		t.Errorf("unlimited = %g", got)
	}
}

func TestSharedFSContention(t *testing.T) {
	ds := testDataset(t, 2)
	// Shared server at 1MB/s read. Two fetches of the same volume must
	// serialize even though they hit different storage nodes.
	cl := build(t, Config{
		StorageNodes: 2, ComputeNodes: 2,
		DiskReadBw: 1 << 20, DiskWriteBw: 1 << 20, SharedFS: true,
	}, ds)
	// Left chunk 0 on node 0, chunk 1 on node 1 (block-cyclic).
	bytes := int64(64 * 16)
	_ = bytes
	start := time.Now()
	done := make(chan error, 2)
	go func() {
		_, err := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 0}, nil)
		done <- err
	}()
	go func() {
		_, err := fetchRows(cl, 1, tuple.ID{Table: ds.Left.ID, Chunk: 1}, nil)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Each chunk is 64 rows × 16 B = 1 KiB; at 1 MiB/s shared that is
	// ~2ms serialized. Too fast to assert; instead check the shared
	// throttle accounted both reads.
	if cl.nfsRead.Taken() != 2048 {
		t.Errorf("shared read throttle took %d bytes, want 2048", cl.nfsRead.Taken())
	}
	_ = elapsed
	// Scratch writes also go through the shared server.
	if err := cl.Compute[0].Scratch.Put("bucket0", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if cl.nfsWrite.Taken() != 512 {
		t.Errorf("shared write throttle took %d bytes, want 512", cl.nfsWrite.Taken())
	}
}

func TestLocalDisksIndependent(t *testing.T) {
	ds := testDataset(t, 2)
	cl := build(t, Config{StorageNodes: 2, ComputeNodes: 1, DiskReadBw: 1 << 20}, ds)
	if cl.Storage[0].Disk.ReadThrottle() == cl.Storage[1].Disk.ReadThrottle() {
		t.Error("local-disk mode must not share throttles")
	}
}

func TestShipAndReset(t *testing.T) {
	ds := testDataset(t, 1)
	cl := build(t, Config{StorageNodes: 1, ComputeNodes: 2, CacheBytes: 1 << 20}, ds)
	recv := cl.Compute[1].NIC.Counters.BytesRecv.Load()
	cl.Ship(0, 1, 4096)
	if got := cl.Compute[1].NIC.Counters.BytesRecv.Load() - recv; got != 4096 {
		t.Errorf("ship recv = %d", got)
	}
	st, _ := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 0}, nil)
	f := FetchedSubTable(st)
	cl.Compute[0].Cache.Put(FetchKey{ID: st.ID}, f, int64(f.StoredBytes()))
	before := cl.Account()
	cl.Reset()
	// Reset empties the caches but zeroes no counter: counters only count
	// up, and a run's accounting is a difference of two snapshots.
	if after := cl.Account(); after != before {
		t.Errorf("counters after reset = %+v, want them unchanged at %+v", after, before)
	}
	if cl.Compute[0].Cache.Len() != 0 {
		t.Error("cache not cleared on reset")
	}
}
