package oilres

import (
	"testing"

	"sciview/internal/congraph"
	"sciview/internal/metadata"
	"sciview/internal/partition"
	"sciview/internal/simio"
)

func smallConfig() Config {
	return Config{
		Grid:         partition.D(8, 8, 4),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(2, 4, 4),
		StorageNodes: 3,
		Seed:         7,
	}
}

func TestGenerateBasics(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Tuples() != 8*8*4 {
		t.Errorf("Tuples = %d", ds.Tuples())
	}
	leftChunks := ds.Catalog.Chunks(ds.Left.ID)
	rightChunks := ds.Catalog.Chunks(ds.Right.ID)
	if len(leftChunks) != 4 { // (8/4)(8/4)(4/4)
		t.Errorf("left chunks = %d, want 4", len(leftChunks))
	}
	if len(rightChunks) != 8 {
		t.Errorf("right chunks = %d, want 8", len(rightChunks))
	}
	// Block-cyclic placement across 3 nodes.
	counts := make(map[int]int)
	for _, d := range leftChunks {
		counts[d.Node]++
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("placement = %v", counts)
	}
	// Row counts.
	for _, d := range leftChunks {
		if d.Rows != 64 {
			t.Errorf("chunk %v rows = %d, want 64", d.ID(), d.Rows)
		}
	}
}

func TestGeneratedChunksExtractAndMatch(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Read every chunk back via a throttle-less disk and check coords
	// cover the block exactly once.
	for _, def := range []*metadata.TableDef{ds.Left, ds.Right} {
		seen := make(map[[3]int32]bool)
		for _, d := range ds.Catalog.Chunks(def.ID) {
			disk := simio.NewDisk(ds.Stores[d.Node], 0, 0)
			data, err := disk.ReadRange(d.Object, d.Offset, d.Size, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := extractHelper(d, data)
			if err != nil {
				t.Fatal(err)
			}
			if st.NumRows() != d.Rows {
				t.Fatalf("chunk %v extracted %d rows, desc says %d", d.ID(), st.NumRows(), d.Rows)
			}
			for r := 0; r < st.NumRows(); r++ {
				key := [3]int32{int32(st.Value(r, 0)), int32(st.Value(r, 1)), int32(st.Value(r, 2))}
				if seen[key] {
					t.Fatalf("duplicate cell %v in table %s", key, def.Name)
				}
				seen[key] = true
				// Measures in [0,1).
				v := st.Value(r, 3)
				if v < 0 || v >= 1 {
					t.Fatalf("measure out of range: %v", v)
				}
			}
		}
		if len(seen) != int(ds.Tuples()) {
			t.Errorf("table %s covers %d cells, want %d", def.Name, len(seen), ds.Tuples())
		}
	}
}

func TestBoundsAreTight(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := ds.Catalog.Chunks(ds.Left.ID)[0]
	// First left block covers cells [0,4)x[0,4)x[0,4): inclusive bounds 0..3.
	for dim := 0; dim < 3; dim++ {
		if d.Bounds.Lo[dim] != 0 || d.Bounds.Hi[dim] != 3 {
			t.Errorf("dim %d bounds = [%g,%g]", dim, d.Bounds.Lo[dim], d.Bounds.Hi[dim])
		}
	}
}

func TestConnectivityMatchesFormulas(t *testing.T) {
	cfg := smallConfig()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := congraph.Build(ds.Catalog.Chunks(ds.Left.ID), ds.Catalog.Chunks(ds.Right.ID), ds.JoinAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if int64(g.NumEdges()) != partition.NumEdges(cfg.Grid, cfg.LeftPart, cfg.RightPart) {
		t.Errorf("n_e = %d, formula %d", g.NumEdges(),
			partition.NumEdges(cfg.Grid, cfg.LeftPart, cfg.RightPart))
	}
	if int64(len(g.Components())) != partition.NumComponents(cfg.Grid, cfg.LeftPart, cfg.RightPart) {
		t.Errorf("components = %d", len(g.Components()))
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := smallConfig()
	bad.LeftPart = partition.D(3, 4, 4)
	if _, err := Generate(bad); err == nil {
		t.Error("non-dividing partition should fail")
	}
	bad = smallConfig()
	bad.Format = "hdf5"
	if _, err := Generate(bad); err == nil {
		t.Error("unknown format should fail")
	}
	bad = smallConfig()
	if _, err := Generate(bad, simio.NewMemStore()); err == nil {
		t.Error("wrong store count should fail")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		an, _ := a.Stores[n].List()
		bn, _ := b.Stores[n].List()
		if len(an) != len(bn) {
			t.Fatal("object lists differ")
		}
		for i := range an {
			da, _ := a.Stores[n].ReadRange(an[i], 0, -1, nil)
			db, _ := b.Stores[n].ReadRange(bn[i], 0, -1, nil)
			if string(da) != string(db) {
				t.Fatalf("object %s differs between runs", an[i])
			}
		}
	}
	// Different seed changes measures.
	cfg := smallConfig()
	cfg.Seed = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := c.Stores[0].List()
	da, _ := a.Stores[0].ReadRange(ca[0], 0, -1, nil)
	dc, _ := c.Stores[0].ReadRange(ca[0], 0, -1, nil)
	if string(da) == string(dc) {
		t.Error("different seeds should change measure bytes")
	}
}

func TestCSVFormatDataset(t *testing.T) {
	cfg := smallConfig()
	cfg.Format = "csv"
	cfg.Grid = partition.D(4, 4, 2)
	cfg.LeftPart = partition.D(2, 2, 2)
	cfg.RightPart = partition.D(2, 2, 2)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := ds.Catalog.Chunks(ds.Left.ID)[0]
	disk := simio.NewDisk(ds.Stores[d.Node], 0, 0)
	data, err := disk.ReadRange(d.Object, d.Offset, d.Size, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := extractHelper(d, data)
	if err != nil || st.NumRows() != 8 {
		t.Fatalf("csv extract: rows=%d err=%v", st.NumRows(), err)
	}
}
