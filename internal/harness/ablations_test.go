package harness

import "testing"

func TestAblationCacheShape(t *testing.T) {
	a, err := AblationCache(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Rows
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At (or above) the memory bound: no re-fetches, minimal net volume.
	if rows[0].Refetches != 0 {
		t.Errorf("refetches at bound = %d", rows[0].Refetches)
	}
	// Below the bound: re-fetches appear, net bytes and time grow.
	last := rows[len(rows)-1]
	if last.Refetches <= 0 {
		t.Errorf("no refetches below the bound")
	}
	if last.NetBytes <= rows[0].NetBytes {
		t.Errorf("net bytes did not grow: %d vs %d", last.NetBytes, rows[0].NetBytes)
	}
	if last.Seconds <= rows[0].Seconds {
		t.Errorf("time did not grow: %.3f vs %.3f", last.Seconds, rows[0].Seconds)
	}
}

func TestAblationScheduleShape(t *testing.T) {
	a, err := AblationSchedule(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range a.Rows {
		byLabel[r.Label] = r
	}
	comp, ok := byLabel["component"]
	if !ok {
		t.Fatalf("rows = %+v", a.Rows)
	}
	if comp.Refetches != 0 {
		t.Errorf("component schedule refetched %d times", comp.Refetches)
	}
	rnd := byLabel["random"]
	if rnd.Refetches <= 0 {
		t.Error("random schedule should refetch")
	}
	if rnd.Seconds <= comp.Seconds {
		t.Errorf("random (%.3fs) not slower than component (%.3fs)", rnd.Seconds, comp.Seconds)
	}
}

func TestAblationPlacementShape(t *testing.T) {
	a, err := AblationPlacement(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	bc, cont := a.Rows[0], a.Rows[1]
	// Identical transfer volume…
	if bc.NetBytes != cont.NetBytes {
		t.Errorf("net bytes differ: %d vs %d", bc.NetBytes, cont.NetBytes)
	}
	// …but contiguous placement serializes on fewer disks: slower.
	if cont.Seconds <= bc.Seconds*1.1 {
		t.Errorf("contiguous (%.3fs) not slower than block-cyclic (%.3fs)", cont.Seconds, bc.Seconds)
	}
}

func TestFig6PaperScaleLinear(t *testing.T) {
	p := Fig6PaperScale()
	if len(p.Rows) < 4 {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	for i := 1; i < len(p.Rows); i++ {
		a, b := p.Rows[i-1], p.Rows[i]
		if b.Tuples != 2*a.Tuples {
			t.Fatalf("sweep not doubling: %d -> %d", a.Tuples, b.Tuples)
		}
		// Exact linearity of both models.
		if !approx(b.IJModel, 2*a.IJModel) || !approx(b.GHModel, 2*a.GHModel) {
			t.Errorf("not linear at T=%d: IJ %.3f->%.3f GH %.3f->%.3f",
				b.Tuples, a.IJModel, b.IJModel, a.GHModel, b.GHModel)
		}
		// The absolute gap doubles too.
		gapA, gapB := a.GHModel-a.IJModel, b.GHModel-b.IJModel
		if !approx(gapB, 2*gapA) {
			t.Errorf("gap not linear: %.3f -> %.3f", gapA, gapB)
		}
	}
	last := p.Rows[len(p.Rows)-1]
	if last.Tuples != 1<<31 {
		t.Errorf("endpoint = %d, want 2^31", last.Tuples)
	}
	if last.GHModel <= last.IJModel {
		t.Error("IJ should win the low-degree large-T regime")
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}
