package sciview

import (
	"testing"
)

func livingSpec() OilReservoirSpec {
	return OilReservoirSpec{
		Grid:     Dims{8, 8, 16},
		LeftPart: Dims{4, 4, 2}, RightPart: Dims{2, 2, 4},
		StorageNodes: 2, Seed: 5,
	}
}

// TestLivingDataset drives the public API end to end: generate with
// withheld time steps, save/load the batch files, materialize a view,
// append while a pinned statement's result is held, and refresh
// incrementally.
func TestLivingDataset(t *testing.T) {
	ds, batches, err := GenerateOilReservoirSteps(livingSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}

	dir := t.TempDir()
	if err := SaveBatches(dir, batches); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBatches(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(batches) {
		t.Fatalf("loaded %d batches, want %d", len(loaded), len(batches))
	}
	for i := range loaded {
		if loaded[i].Step() != batches[i].Step() || loaded[i].NumChunks() != batches[i].NumChunks() {
			t.Fatalf("batch %d roundtrip mismatch", i)
		}
	}

	sys, err := NewSystem(ds, ClusterSpec{ComputeNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if v := sys.DatasetVersion(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}
	if _, err := sys.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	lv, err := sys.MaterializeView("V1")
	if err != nil {
		t.Fatal(err)
	}
	base, baseVer := lv.Rows()
	if baseVer != 1 {
		t.Fatalf("view materialized at version %d, want 1", baseVer)
	}

	before, err := sys.Exec("SELECT COUNT(*) FROM V1")
	if err != nil {
		t.Fatal(err)
	}

	ing, err := sys.Ingestor(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range loaded {
		v, err := ing.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 2); v != want {
			t.Fatalf("append %d committed version %d, want %d", i, v, want)
		}
	}
	if !lv.Stale() {
		t.Fatal("view not stale after intersecting appends")
	}
	if _, err := lv.Refresh(); err != nil {
		t.Fatal(err)
	}
	grown, grownVer := lv.Rows()
	if grownVer != 3 {
		t.Fatalf("refreshed view at version %d, want 3", grownVer)
	}
	if grown.NumRows() <= base.NumRows() {
		t.Fatalf("refresh did not grow the view: %d rows vs %d", grown.NumRows(), base.NumRows())
	}
	if _, err := lv.RefreshFull(); err != nil {
		t.Fatal(err)
	}
	oracle, _ := lv.Rows()
	if oracle.NumRows() != grown.NumRows() {
		t.Fatalf("delta view has %d rows, full recompute %d", grown.NumRows(), oracle.NumRows())
	}

	after, err := sys.Exec("SELECT COUNT(*) FROM V1")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows.Value(0, 0) <= before.Rows.Value(0, 0) {
		t.Fatalf("post-append COUNT(*) = %v, want > pre-append %v",
			after.Rows.Value(0, 0), before.Rows.Value(0, 0))
	}
}
