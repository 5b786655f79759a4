package ingest

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"sciview/internal/cluster"
	"sciview/internal/dds"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/plan"
	"sciview/internal/planner"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// ViewConfig assembles a MaterializedView.
type ViewConfig struct {
	Cluster *cluster.Cluster
	Planner *planner.Planner
	// View is the equi-join view to materialize.
	View *dds.JoinView
	// Metrics, when set, registers sciview_ingest_refreshes_total with a
	// mode label ("delta" or "full").
	Metrics *metrics.Registry
}

// MaterializedView holds a join view's full result, canonically ordered,
// together with the catalog version it reflects. Refresh folds committed
// append batches in incrementally with the delta-join identity
//
//	ΔV = ΔL ⋈ R_old  ∪  L_old ⋈ ΔR  ∪  ΔL ⋈ ΔR
//
// where each term runs through the ordinary streaming plan operators with
// per-side catalog-version windows — the same code path queries use, just
// restricted to the right slices of the version history. The maintained
// result is byte-identical to recomputing the view from scratch at the
// same version (RefreshFull), which the differential tests assert.
//
// Rows are kept in canonical order (lexicographic over all columns):
// each engine's output order is defined but not shared across
// maintenance strategies (three delta terms vs one full join, either
// engine), so the canonical sort is what makes "byte-identical"
// well-defined.
type MaterializedView struct {
	cfg ViewConfig

	mu      sync.Mutex
	rows    *tuple.SubTable
	version int64

	refreshDelta *metrics.Counter
	refreshFull  *metrics.Counter
}

// NewMaterializedView builds the view's initial materialization at the
// catalog's current version.
func NewMaterializedView(cfg ViewConfig) (*MaterializedView, error) {
	if cfg.Cluster == nil || cfg.Planner == nil || cfg.View == nil {
		return nil, fmt.Errorf("ingest: view config needs Cluster, Planner and View")
	}
	m := &MaterializedView{cfg: cfg}
	reg := cfg.Metrics
	m.refreshDelta = reg.Counter("sciview_ingest_refreshes_total", "Materialized view refreshes by mode.", "mode", "delta")
	m.refreshFull = reg.Counter("sciview_ingest_refreshes_total", "Materialized view refreshes by mode.", "mode", "full")
	if _, err := m.RefreshFull(); err != nil {
		return nil, err
	}
	return m, nil
}

// Rows returns the materialized result (canonical order) and the version
// it reflects. The sub-table is shared — callers must not modify it.
func (m *MaterializedView) Rows() (*tuple.SubTable, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows, m.version
}

// Stale reports whether a commit intersecting the view landed after its
// last refresh: whether the catalog resolves, on either side, a chunk
// inside the view's filter committed after the view's version — exactly
// when Refresh finds a delta. It asks the catalog, so it holds whoever
// appended. A resolution error reports stale; Refresh surfaces it.
func (m *MaterializedView) Stale() bool {
	m.mu.Lock()
	since := m.version
	m.mu.Unlock()
	cat := m.cfg.Cluster.Catalog
	filter := query.ToRange(m.cfg.View.Where)
	for _, table := range []string{m.cfg.View.Left, m.cfg.View.Right} {
		def, err := cat.Table(table)
		if err != nil {
			return true
		}
		descs, err := cat.ChunksInRange(table, filter.Restrict(def.Schema, metadata.VersionWindow{Since: since}))
		if err != nil || len(descs) > 0 {
			return true
		}
	}
	return false
}

// Refresh brings the view to the catalog's current version by delta-join
// maintenance and returns that version. A view already at the current
// version returns immediately.
func (m *MaterializedView) Refresh() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.cfg.Cluster.Catalog.Version()
	if target == m.version {
		return target, nil
	}
	old := m.version
	// The three delta terms. Windows are half-open (Since, Until]: the
	// "old" side is everything visible at the last refresh, the "new" side
	// exactly the versions committed since.
	terms := []struct {
		lw, rw metadata.VersionWindow
	}{
		{metadata.VersionWindow{Until: old}, metadata.VersionWindow{Since: old, Until: target}},                // L_old ⋈ ΔR
		{metadata.VersionWindow{Since: old, Until: target}, metadata.VersionWindow{Until: old}},                // ΔL ⋈ R_old
		{metadata.VersionWindow{Since: old, Until: target}, metadata.VersionWindow{Since: old, Until: target}}, // ΔL ⋈ ΔR
	}
	merged := m.rows
	for _, t := range terms {
		delta, err := m.joinTerm(t.lw, t.rw, target)
		if err != nil {
			return 0, err
		}
		if delta == nil || delta.NumRows() == 0 {
			continue
		}
		if merged == m.rows {
			// First contributing term: copy-on-write so concurrent readers
			// of the old Rows() are never mutated under.
			merged = tuple.NewSubTable(m.rows.ID, m.rows.Schema, m.rows.NumRows()+delta.NumRows())
			if err := merged.AppendAll(m.rows); err != nil {
				return 0, err
			}
		}
		if err := merged.AppendAll(delta); err != nil {
			return 0, err
		}
	}
	if merged != m.rows {
		m.rows = Canonicalize(merged)
	}
	m.version = target
	m.refreshDelta.Inc()
	return target, nil
}

// RefreshFull recomputes the view from scratch at the catalog's current
// version — the oracle the delta path is checked against, and the fallback
// for non-equi-join maintenance.
func (m *MaterializedView) RefreshFull() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target := m.cfg.Cluster.Catalog.Version()
	rows, err := m.joinTerm(metadata.VersionWindow{}, metadata.VersionWindow{}, target)
	if err != nil {
		return 0, err
	}
	if rows == nil {
		return 0, fmt.Errorf("ingest: view %s selects no chunks", m.cfg.View.Name)
	}
	m.rows = Canonicalize(rows)
	m.version = target
	m.refreshFull.Inc()
	return target, nil
}

// joinTerm runs one delta term through the streaming plan layer: the
// view's join with per-side version windows, pinned at target. Returns nil
// (no rows) when either side's window selects no chunks — the join of
// anything with an empty chunk set is empty.
func (m *MaterializedView) joinTerm(lw, rw metadata.VersionWindow, target int64) (*tuple.SubTable, error) {
	v := m.cfg.View
	req, err := v.Request(nil, false)
	if err != nil {
		return nil, err
	}
	req.AsOf = target
	req.LeftVersions = lw
	req.RightVersions = rw
	req.Shared = true // never reset the cluster under concurrent queries

	// Prune through the equi-join: every tuple a delta term emits agrees
	// with some delta-side tuple on the join attributes, so both sides can
	// be restricted to the delta chunks' bounding region. For time-step
	// appends this collapses the old side of ΔL⋈R_old / L_old⋈ΔR to the
	// few chunks overlapping the new slab — usually none.
	for _, side := range []struct {
		table string
		w     metadata.VersionWindow
	}{
		{req.LeftTable, req.LeftWindow()},
		{req.RightTable, req.RightWindow()},
	} {
		if side.w.Since == 0 {
			continue
		}
		r, ok, err := m.deltaJoinBounds(side.table, side.w)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		// A delta wholly outside the view's own range joins to nothing.
		if req.Filter, ok = intersectRanges(req.Filter, r); !ok {
			return nil, nil
		}
	}

	in, err := engine.Resolve(m.cfg.Cluster.Catalog, req)
	if err != nil {
		return nil, err
	}
	if len(in.LeftDescs) == 0 || len(in.RightDescs) == 0 {
		return nil, nil
	}
	eng, dec, err := m.cfg.Planner.Decide(m.cfg.Cluster, in)
	if err != nil {
		return nil, err
	}
	p := &plan.Plan{Root: plan.NewJoin(eng, m.cfg.Cluster, v.Name, in, dec), OutID: tuple.ID{Table: -1, Chunk: -1}}
	rows, _, err := plan.Run(context.Background(), p)
	return rows, err
}

// deltaJoinBounds returns the union of the bounding intervals, projected
// onto the view's join attributes, of the chunks a delta version window
// selects from table. ok is false when the window selects no chunks, in
// which case the whole term is empty.
func (m *MaterializedView) deltaJoinBounds(table string, w metadata.VersionWindow) (metadata.Range, bool, error) {
	descs, err := m.cfg.Cluster.Catalog.ChunksInRange(table, metadata.Range{Versions: w})
	if err != nil || len(descs) == 0 {
		return metadata.Range{}, false, err
	}
	var r metadata.Range
	for _, a := range m.cfg.View.JoinAttrs {
		lo, hi := 0.0, 0.0
		seen := false
		for _, d := range descs {
			for i, at := range d.Attrs {
				if at.Name != a || i >= d.Bounds.Dims() {
					continue
				}
				if !seen || d.Bounds.Lo[i] < lo {
					lo = d.Bounds.Lo[i]
				}
				if !seen || d.Bounds.Hi[i] > hi {
					hi = d.Bounds.Hi[i]
				}
				seen = true
			}
		}
		if seen {
			r.Attrs = append(r.Attrs, a)
			r.Lo = append(r.Lo, lo)
			r.Hi = append(r.Hi, hi)
		}
	}
	return r, true, nil
}

// intersectRanges conjoins two range filters, intersecting intervals on
// shared attributes; ok is false when an intersection is empty.
func intersectRanges(a, b metadata.Range) (out metadata.Range, ok bool) {
	out = metadata.Range{
		Attrs:    append([]string(nil), a.Attrs...),
		Lo:       append([]float64(nil), a.Lo...),
		Hi:       append([]float64(nil), a.Hi...),
		Versions: a.Versions,
	}
	for j, attr := range b.Attrs {
		found := false
		for i, have := range out.Attrs {
			if have != attr {
				continue
			}
			if b.Lo[j] > out.Lo[i] {
				out.Lo[i] = b.Lo[j]
			}
			if b.Hi[j] < out.Hi[i] {
				out.Hi[i] = b.Hi[j]
			}
			if out.Lo[i] > out.Hi[i] {
				return out, false
			}
			found = true
			break
		}
		if !found {
			out.Attrs = append(out.Attrs, attr)
			out.Lo = append(out.Lo, b.Lo[j])
			out.Hi = append(out.Hi, b.Hi[j])
		}
	}
	return out, true
}

// Canonicalize returns the rows of st in canonical order: lexicographic
// over all columns, left to right, each column compared by tuple.KeyWord
// (value order, NaN last) and then by raw bits (+0 before -0, NaN payloads
// apart). The order is total over bit patterns, so rows that compare equal
// are identical and any two sub-tables holding the same multiset of rows
// canonicalize to byte-identical encodings — the well-definedness behind
// "delta maintenance is byte-identical to recompute".
func Canonicalize(st *tuple.SubTable) *tuple.SubTable {
	n := st.NumRows()
	cols := st.Schema.NumAttrs()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		for c := 0; c < cols; c++ {
			av, bv := st.Value(a, c), st.Value(b, c)
			if d := cmp.Compare(tuple.KeyWord(av), tuple.KeyWord(bv)); d != 0 {
				return d
			}
			if d := cmp.Compare(math.Float32bits(av), math.Float32bits(bv)); d != 0 {
				return d
			}
		}
		return 0
	})
	out := tuple.NewSubTable(st.ID, st.Schema, n)
	row := make([]float32, cols)
	for _, r := range idx {
		out.AppendRow(st.Row(r, row)...)
	}
	return out
}
