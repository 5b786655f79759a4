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
