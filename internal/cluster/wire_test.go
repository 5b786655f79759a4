package cluster

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"sciview/internal/colenc"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
	"sciview/internal/tuple"
)

// rleDataset generates a dataset whose chunks are stored run-length
// encoded, so the colenc wire is exercised over the rle extractor.
func rleDataset(t *testing.T, nodes, replicas int) *oilres.Dataset {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(8, 8, 8),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(4, 4, 4),
		StorageNodes: nodes,
		Replicas:     replicas,
		Format:       "rle",
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// mustSame asserts two sub-tables are bit-identical: same schema order,
// same rows, same float bits per cell (±0 and NaN payloads included).
func mustSame(t *testing.T, a, b *tuple.SubTable) {
	t.Helper()
	if got, want := a.Schema.Names(), b.Schema.Names(); len(got) != len(want) {
		t.Fatalf("schema mismatch: %v vs %v", got, want)
	}
	for i, n := range a.Schema.Names() {
		if b.Schema.Names()[i] != n {
			t.Fatalf("schema order mismatch: %v vs %v", a.Schema.Names(), b.Schema.Names())
		}
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("rows %d vs %d", a.NumRows(), b.NumRows())
	}
	for c := 0; c < a.Schema.NumAttrs(); c++ {
		ac, bc := a.Col(c), b.Col(c)
		for r := range ac {
			if math.Float32bits(ac[r]) != math.Float32bits(bc[r]) {
				t.Fatalf("cell (%d,%d): %v vs %v", r, c, ac[r], bc[r])
			}
		}
	}
}

// TestWireEncodedByteIdentical fetches every chunk through both wire
// codecs — plain, filtered, and projected — and requires bit-identical
// decoded results, with the encoded wire moving strictly fewer bytes.
func TestWireEncodedByteIdentical(t *testing.T) {
	for _, format := range []string{"rowmajor", "rle"} {
		t.Run(format, func(t *testing.T) {
			mk := func(wire string) (*Cluster, *oilres.Dataset) {
				ds, err := oilres.Generate(oilres.Config{
					Grid:     partition.D(8, 8, 8),
					LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
					StorageNodes: 2, Format: format, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				return build(t, Config{StorageNodes: 2, ComputeNodes: 1, Wire: wire}, ds), ds
			}
			plain, dsA := mk("")
			enc, dsB := mk("colenc")
			plain0, enc0 := plain.Account(), enc.Account()
			filter := &metadata.Range{Attrs: []string{"z"}, Lo: []float64{0}, Hi: []float64{2}}
			for chunkID := int32(0); chunkID < 8; chunkID++ {
				id := tuple.ID{Table: dsA.Left.ID, Chunk: chunkID}
				a, err := fetchRows(plain, 0, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := fetchRows(enc, 0, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				mustSame(t, a, b)

				ap, err := fetchRows(plain, 0, id, filter, []string{"x", "oilp"})
				if err != nil {
					t.Fatal(err)
				}
				bp, err := fetchRows(enc, 0, tuple.ID{Table: dsB.Left.ID, Chunk: chunkID}, filter, []string{"x", "oilp"})
				if err != nil {
					t.Fatal(err)
				}
				mustSame(t, ap, bp)
			}
			plainBytes := plain.Account().Sub(plain0).Traffic.NetBytesToCompute
			encBytes := enc.Account().Sub(enc0).Traffic.NetBytesToCompute
			if encBytes >= plainBytes {
				t.Errorf("encoded wire moved %d bytes, row-major %d — no reduction", encBytes, plainBytes)
			}
			t.Logf("%s: wire bytes %d → %d (%.0f%%)", format, plainBytes, encBytes,
				100*float64(encBytes)/float64(plainBytes))
		})
	}
}

// TestWireIndependentOfStorageFormat generates one grid twice, stored
// row-major and run-length encoded, and fetches every chunk of both tables
// over the colenc wire plain, filtered and projected: each fetch must ship
// the same SVT2 frame whichever way its chunk is stored.
func TestWireIndependentOfStorageFormat(t *testing.T) {
	mk := func(format string) (*Cluster, *oilres.Dataset) {
		ds, err := oilres.Generate(oilres.Config{
			Grid:     partition.D(8, 8, 8),
			LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 4),
			StorageNodes: 2, Format: format, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return build(t, Config{StorageNodes: 2, ComputeNodes: 1, Wire: "colenc"}, ds), ds
	}
	rowmajor, ds := mk("rowmajor")
	rle, _ := mk("rle")
	shapes := []struct {
		name    string
		filter  *metadata.Range
		project []string
	}{
		{"plain", nil, nil},
		{"filtered", &metadata.Range{Attrs: []string{"z"}, Lo: []float64{0}, Hi: []float64{2}}, nil},
		{"projected", &metadata.Range{Attrs: []string{"y"}, Lo: []float64{1}, Hi: []float64{5}}, []string{"x", "oilp", "wp"}},
	}
	for _, table := range []int32{ds.Left.ID, ds.Right.ID} {
		for chunkID := int32(0); chunkID < 8; chunkID++ {
			id := tuple.ID{Table: table, Chunk: chunkID}
			for _, s := range shapes {
				a, err := rowmajor.Fetch(context.Background(), 0, id, s.filter, s.project)
				if err != nil {
					t.Fatal(err)
				}
				b, err := rle.Fetch(context.Background(), 0, id, s.filter, s.project)
				if err != nil {
					t.Fatal(err)
				}
				if a.WireBytes() != b.WireBytes() {
					t.Errorf("%v %s: %d wire bytes stored row-major, %d stored rle", id, s.name, a.WireBytes(), b.WireBytes())
				}
				if !bytes.Equal(colenc.Encode(nil, a.enc), colenc.Encode(nil, b.enc)) {
					t.Errorf("%v %s: SVT2 frames differ between storage formats", id, s.name)
				}
			}
		}
	}
}

// TestWireEncodedCounters checks the encoded/decoded byte counters and
// that the cache retains the compressed representation (resident bytes
// charged at stored size, well under the decoded size).
func TestWireEncodedCounters(t *testing.T) {
	ds := rleDataset(t, 2, 0)
	reg := metrics.NewRegistry()
	cl := build(t, Config{StorageNodes: 2, ComputeNodes: 1, CacheBytes: 1 << 20, Wire: "colenc", Metrics: reg}, ds)
	id := tuple.ID{Table: ds.Left.ID, Chunk: 0}
	f, err := cl.Fetch(context.Background(), 0, id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Encoded() {
		t.Fatal("colenc fetch did not carry an encoded table")
	}
	encTotal := cl.met.fetchEncBytes.Value()
	decTotal := cl.met.fetchDecBytes.Value()
	if encTotal <= 0 || decTotal <= 0 {
		t.Fatalf("counters: enc=%d dec=%d", encTotal, decTotal)
	}
	if encTotal >= decTotal {
		t.Errorf("encoded bytes %d not below decoded %d on rle grid data", encTotal, decTotal)
	}
	if sb, db := f.StoredBytes(), f.DecodedBytes(); sb >= db {
		t.Errorf("stored (cache-charged) bytes %d not below decoded %d", sb, db)
	}
	if f.WireBytes() != int(encTotal) {
		t.Errorf("wire bytes %d, counter %d", f.WireBytes(), encTotal)
	}
}

// TestWireEncodedTCP negotiates the encoded codec over real sockets and
// cross-checks against an in-process row-major cluster.
func TestWireEncodedTCP(t *testing.T) {
	ds := rleDataset(t, 2, 0)
	plain := build(t, Config{StorageNodes: 2, ComputeNodes: 1}, ds)
	enc, err := New(Config{StorageNodes: 2, ComputeNodes: 1, UseTCP: true, Wire: "colenc"}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	filter := &metadata.Range{Attrs: []string{"y"}, Lo: []float64{0}, Hi: []float64{1}}
	for chunkID := int32(0); chunkID < 8; chunkID++ {
		id := tuple.ID{Table: ds.Right.ID, Chunk: chunkID}
		a, err := fetchRows(plain, 0, id, filter, []string{"x", "y", "wp"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := fetchRows(enc, 0, id, filter, []string{"x", "y", "wp"})
		if err != nil {
			t.Fatal(err)
		}
		mustSame(t, a, b)
	}
}

// TestWireEncodedFailover kills storage node 0 and checks the encoded
// fetch path fails over to the replica, still byte-identical to an
// undisturbed row-major fetch.
func TestWireEncodedFailover(t *testing.T) {
	ds := rleDataset(t, 2, 2)
	plain := build(t, Config{StorageNodes: 2, ComputeNodes: 1}, ds)
	inj := fault.New()
	enc := build(t, Config{
		StorageNodes: 2, ComputeNodes: 1, Wire: "colenc", Faults: inj,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond},
	}, ds)
	inj.Kill(fault.StorageNode(0))
	before := enc.Account()
	for chunkID := int32(0); chunkID < 8; chunkID++ {
		id := tuple.ID{Table: ds.Left.ID, Chunk: chunkID}
		a, err := fetchRows(plain, 0, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fetchRows(enc, 0, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSame(t, a, b)
	}
	if enc.Account().Sub(before).Health.Failovers == 0 {
		t.Error("expected failovers with storage node 0 down")
	}
}
