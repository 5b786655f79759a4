package ingest

import (
	"bytes"
	"testing"

	"sciview/internal/planner"
	"sciview/internal/query"
)

// TestDeltaRefreshOverEmptySides: every step appends a slab the old side
// of ΔL⋈R_old and L_old⋈ΔR does not overlap, so those terms resolve to an
// empty side and contribute nothing; once the slabs leave the view's own z
// range the ΔL⋈ΔR term is empty too. Under either engine the refresh is
// not an error and stays byte-identical to a full recompute.
func TestDeltaRefreshOverEmptySides(t *testing.T) {
	for _, force := range []string{"ij", "gh"} {
		cl, in, batches, _ := liveCluster(t, 4)
		pl := planner.New()
		pl.Force = force
		v := testView(query.Pred{Attr: "z", Lo: 2, Hi: 13})
		m, err := NewMaterializedView(ViewConfig{Cluster: cl, Planner: pl, View: v})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if _, err := in.Append(b); err != nil {
				t.Fatal(err)
			}
			before, _ := m.Rows()
			if _, err := m.Refresh(); err != nil {
				t.Fatalf("%s: refresh after step %d: %v", force, i, err)
			}
			got, _ := m.Rows()
			oracle := &MaterializedView{cfg: ViewConfig{Cluster: cl, Planner: pl, View: v}}
			if _, err := oracle.RefreshFull(); err != nil {
				t.Fatal(err)
			}
			want, _ := oracle.Rows()
			if !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
				t.Fatalf("%s: step %d: delta view has %d rows, full recompute %d", force, i, got.NumRows(), want.NumRows())
			}
			// Steps 0 and 1 (z 8–11, 12–15) reach into the view; steps 2 and
			// 3 (z 16–23) lie wholly outside it.
			if grew := got.NumRows() > before.NumRows(); grew != (i < 2) {
				t.Errorf("%s: step %d: view went from %d to %d rows", force, i, before.NumRows(), got.NumRows())
			}
		}
	}
}
