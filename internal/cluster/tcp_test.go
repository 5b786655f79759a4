package cluster

import (
	"testing"

	"sciview/internal/metadata"
	"sciview/internal/tuple"
)

func TestTCPFetch(t *testing.T) {
	ds := testDataset(t, 2)
	cl, err := New(Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 1 << 20, UseTCP: true,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before := cl.Account()
	st, err := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 64 {
		t.Errorf("rows = %d", st.NumRows())
	}
	// Filter pushdown crosses the wire too.
	st, err = fetchRows(cl, 1, tuple.ID{Table: ds.Left.ID, Chunk: 1}, &metadata.Range{
		Attrs: []string{"z"}, Lo: []float64{0}, Hi: []float64{0},
	})
	if err != nil || st.NumRows() != 16 {
		t.Fatalf("filtered fetch: rows=%d err=%v", st.NumRows(), err)
	}
	// Remote error propagation: unknown chunk.
	if _, err := fetchRows(cl, 0, tuple.ID{Table: ds.Left.ID, Chunk: 99}, nil); err == nil {
		t.Error("unknown chunk over TCP accepted")
	}
	// Accounting still applies (disk read happened inside the server).
	if got := cl.Account().Sub(before).Traffic.StorageBytesRead; got == 0 {
		t.Error("no storage read accounted over TCP")
	}
}

func TestTCPFetchMatchesInProc(t *testing.T) {
	ds := testDataset(t, 2)
	direct, err := New(Config{StorageNodes: 2, ComputeNodes: 1}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	viaTCP, err := New(Config{StorageNodes: 2, ComputeNodes: 1, UseTCP: true}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer viaTCP.Close()
	for chunkID := int32(0); chunkID < 4; chunkID++ {
		id := tuple.ID{Table: ds.Left.ID, Chunk: chunkID}
		a, err := fetchRows(direct, 0, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fetchRows(viaTCP, 0, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumRows() != b.NumRows() || !a.Schema.Equal(b.Schema) {
			t.Fatalf("chunk %d differs over TCP", chunkID)
		}
		for r := 0; r < a.NumRows(); r++ {
			for c := 0; c < a.Schema.NumAttrs(); c++ {
				if a.Value(r, c) != b.Value(r, c) {
					t.Fatalf("chunk %d value (%d,%d) differs", chunkID, r, c)
				}
			}
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	ds := testDataset(t, 1)
	cl, err := New(Config{StorageNodes: 1, ComputeNodes: 1, UseTCP: true}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// In-proc clusters: Close is a no-op.
	cl2, _ := New(Config{StorageNodes: 1, ComputeNodes: 1}, ds.Catalog, ds.Stores)
	if err := cl2.Close(); err != nil {
		t.Errorf("in-proc close: %v", err)
	}
}
