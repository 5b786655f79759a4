package bds

import (
	"context"
	"strings"
	"testing"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/metadata"
	"sciview/internal/simio"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

func schemaXY() tuple.Schema {
	return tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "oilp", Kind: tuple.Measure},
	)
}

// setup writes two chunks of table T1 on node 0 (rowmajor) and one on node
// 1 (csv), returning the catalog and per-node disks.
func setup(t *testing.T) (*metadata.Catalog, []*simio.Disk) {
	t.Helper()
	cat := metadata.NewCatalog()
	def, err := cat.CreateTable("T1", schemaXY())
	if err != nil {
		t.Fatal(err)
	}
	disks := []*simio.Disk{
		simio.NewDisk(simio.NewMemStore(), 0, 0),
		simio.NewDisk(simio.NewMemStore(), 0, 0),
	}
	add := func(node int, format string, xbase float32) {
		st := tuple.NewSubTable(tuple.ID{}, schemaXY(), 16)
		for i := 0; i < 16; i++ {
			st.AppendRow(xbase+float32(i%4), float32(i/4), float32(i))
		}
		ex, err := chunk.Lookup(format)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ex.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		obj := "t1.dat"
		sz, _ := disks[node].Store().Size(obj)
		if err := disks[node].Store().Append(obj, data); err != nil {
			t.Fatal(err)
		}
		b := st.Bounds()
		desc := &chunk.Desc{
			Object: obj, Offset: sz, Size: int64(len(data)),
			Node: node, Format: format, Attrs: schemaXY().Attrs, Rows: 16,
			Bounds: bbox.New(b.Lo, b.Hi),
		}
		if _, err := cat.AddChunk(def.ID, desc); err != nil {
			t.Fatal(err)
		}
	}
	add(0, "rowmajor", 0)
	add(0, "rowmajor", 100)
	add(1, "csv", 200)
	return cat, disks
}

func TestSubTable(t *testing.T) {
	cat, disks := setup(t)
	svc := New(0, cat, disks[0])
	st, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 16 || st.ID != (tuple.ID{Table: 0, Chunk: 0}) {
		t.Errorf("rows=%d id=%v", st.NumRows(), st.ID)
	}
	if svc.Stats.SubTablesServed.Load() != 1 || svc.Stats.RecordsServed.Load() != 16 {
		t.Error("stats not updated")
	}
}

func TestSubTableWrongNode(t *testing.T) {
	cat, disks := setup(t)
	svc := New(0, cat, disks[0])
	if _, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 2}, nil); err == nil ||
		!strings.Contains(err.Error(), "node") {
		t.Errorf("expected wrong-node error, got %v", err)
	}
	if _, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 99}, nil); err == nil {
		t.Error("unknown chunk should fail")
	}
	if _, err := svc.SubTable(tuple.ID{Table: 9, Chunk: 0}, nil); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestSubTableFilterPushdown(t *testing.T) {
	cat, disks := setup(t)
	svc := New(0, cat, disks[0])
	st, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 0}, &metadata.Range{
		Attrs: []string{"x", "oilp"},
		Lo:    []float64{0, 0},
		Hi:    []float64{1, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// x in {0,1} keeps 8 of 16 rows.
	if st.NumRows() != 8 {
		t.Errorf("filtered rows = %d, want 8", st.NumRows())
	}
	// Constraint on an attribute the chunk lacks is ignored.
	st, err = svc.SubTable(tuple.ID{Table: 0, Chunk: 0}, &metadata.Range{
		Attrs: []string{"wp"},
		Lo:    []float64{0.5},
		Hi:    []float64{0.6},
	})
	if err != nil || st.NumRows() != 16 {
		t.Errorf("absent-attr filter: rows=%d err=%v", st.NumRows(), err)
	}
	// Invalid filter is rejected.
	if _, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 0}, &metadata.Range{
		Attrs: []string{"x"}, Lo: []float64{2}, Hi: []float64{1},
	}); err == nil {
		t.Error("inverted filter should fail")
	}
}

func TestCSVChunkViaSecondNode(t *testing.T) {
	cat, disks := setup(t)
	svc := New(1, cat, disks[1])
	st, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 16 || st.Value(0, 0) != 200 {
		t.Errorf("csv chunk decode wrong: rows=%d x0=%v", st.NumRows(), st.Value(0, 0))
	}
}

func TestLocalChunks(t *testing.T) {
	cat, disks := setup(t)
	svc0 := New(0, cat, disks[0])
	svc1 := New(1, cat, disks[1])
	mine, err := svc0.LocalChunks("T1", metadata.Range{})
	if err != nil || len(mine) != 2 {
		t.Fatalf("node 0 chunks = %d, %v", len(mine), err)
	}
	mine, err = svc1.LocalChunks("T1", metadata.Range{})
	if err != nil || len(mine) != 1 {
		t.Fatalf("node 1 chunks = %d, %v", len(mine), err)
	}
	// Range restricted to node 0's first chunk.
	mine, err = svc0.LocalChunks("T1", metadata.Range{
		Attrs: []string{"x"}, Lo: []float64{0}, Hi: []float64{10},
	})
	if err != nil || len(mine) != 1 {
		t.Fatalf("ranged chunks = %d, %v", len(mine), err)
	}
	if _, err := svc0.LocalChunks("nope", metadata.Range{}); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestDiskReadAccounting(t *testing.T) {
	cat, disks := setup(t)
	svc := New(0, cat, disks[0])
	if _, err := svc.SubTable(tuple.ID{Table: 0, Chunk: 0}, nil); err != nil {
		t.Fatal(err)
	}
	want := int64(16 * schemaXY().RecordSize())
	if got := disks[0].Counters.BytesRead.Load(); got != want {
		t.Errorf("bytes read = %d, want %d", got, want)
	}
}

func testRPC(t *testing.T, tr transport.Transport) {
	t.Helper()
	cat, disks := setup(t)
	svc := New(0, cat, disks[0])
	closer, err := svc.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	client, err := DialNode(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	st, err := client.SubTable(tuple.ID{Table: 0, Chunk: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 16 || st.Value(0, 0) != 100 {
		t.Errorf("remote sub-table wrong: rows=%d x0=%v", st.NumRows(), st.Value(0, 0))
	}
	// Filter over RPC.
	st, err = client.SubTable(tuple.ID{Table: 0, Chunk: 1}, &metadata.Range{
		Attrs: []string{"y"}, Lo: []float64{0}, Hi: []float64{0},
	})
	if err != nil || st.NumRows() != 4 {
		t.Errorf("remote filtered: rows=%d err=%v", st.NumRows(), err)
	}
	// Remote error propagation.
	if _, err := client.SubTable(tuple.ID{Table: 0, Chunk: 2}, nil); err == nil {
		t.Error("wrong-node fetch over RPC should fail")
	}
}

// TestClientEncodedRejectsRowMajor serves a handler that answers every
// request with a row-major SVT1 frame: an encoded fetch must fail rather
// than accept a format it did not ask for.
func TestClientEncodedRejectsRowMajor(t *testing.T) {
	tr := transport.NewInProc()
	st := tuple.NewSubTable(tuple.ID{}, schemaXY(), 1)
	st.AppendRow(1, 2, 3)
	closer, err := tr.Serve(ServiceName(0), func(string, []byte) ([]byte, error) {
		return tuple.Encode(nil, st), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	client, err := DialNode(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if enc, err := client.SubTableEncoded(context.Background(), tuple.ID{}, nil, nil); err == nil {
		t.Fatalf("SVT1 reply to an encoded request accepted (%d rows)", enc.NumRows())
	}
}

func TestRPCInProc(t *testing.T) { testRPC(t, transport.NewInProc()) }

func TestRPCTCP(t *testing.T) { testRPC(t, transport.NewTCP()) }
