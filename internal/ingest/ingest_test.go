package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/dds"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/plan"
	"sciview/internal/planner"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// stepCfg is the shared living-dataset shape: Z is the time axis, one step
// slab is lcm(2, 4) = 4 cells deep, and the full grid holds 4 slabs beyond
// any base.
func stepCfg() oilres.Config {
	return oilres.Config{
		Grid:     partition.D(8, 8, 24),
		LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 7,
	}
}

// liveCluster generates a base dataset withholding `steps` time-step slabs
// and assembles the query stack plus ingest path over it.
func liveCluster(t testing.TB, steps int) (*cluster.Cluster, *Ingestor, []*Batch, *metrics.Registry) {
	t.Helper()
	ds, stepChunks, err := oilres.GenerateSteps(stepCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 8 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	in, err := New(Config{
		Catalog: ds.Catalog, Stores: ds.Stores, Replicas: 2, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]*Batch, len(stepChunks))
	for i, sc := range stepChunks {
		batches[i] = FromStepChunks(i, sc)
	}
	return cl, in, batches, reg
}

func testView(where ...query.Pred) *dds.JoinView {
	return &dds.JoinView{
		Name: "V", Left: "T1", Right: "T2",
		JoinAttrs: []string{"x", "y", "z"}, Where: where,
	}
}

// encodeRows canonicalizes and byte-encodes a result, the comparison the
// "byte-identical" acceptance criterion is stated in.
func encodeRows(t testing.TB, st *tuple.SubTable) []byte {
	t.Helper()
	ex, err := chunk.Lookup("rowmajor")
	if err != nil {
		t.Fatal(err)
	}
	data, err := ex.Encode(Canonicalize(st))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// joinAt runs the view's full join pinned at an explicit catalog version.
func joinAt(t testing.TB, cl *cluster.Cluster, v *dds.JoinView, asOf int64) *tuple.SubTable {
	t.Helper()
	m := &MaterializedView{cfg: ViewConfig{Cluster: cl, Planner: planner.New(), View: v}}
	rows, err := m.joinTerm(metadata.VersionWindow{}, metadata.VersionWindow{}, asOf)
	if err != nil {
		t.Fatal(err)
	}
	if rows == nil {
		t.Fatalf("join at version %d selected no chunks", asOf)
	}
	return rows
}

// TestAppendVersioning: each batch commits as one new monotonic version,
// chunks carry their commit version, and version windows slice the chunk
// history exactly.
func TestAppendVersioning(t *testing.T) {
	cl, in, batches, reg := liveCluster(t, 3)
	cat := cl.Catalog
	if v := cat.Version(); v != 1 {
		t.Fatalf("seed version = %d, want 1", v)
	}
	base, err := cat.ChunksInRange("T1", metadata.Range{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		v, err := in.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 2); v != want {
			t.Fatalf("batch %d committed version %d, want %d", i, v, want)
		}
	}
	// Window (1, 2]: exactly batch 0's T1 chunks.
	only2, err := cat.ChunksInRange("T1", metadata.Range{Versions: metadata.VersionWindow{Since: 1, Until: 2}})
	if err != nil {
		t.Fatal(err)
	}
	perStep := 0
	for _, c := range batches[0].Chunks {
		if c.Table == "T1" {
			perStep++
		}
	}
	if len(only2) != perStep {
		t.Fatalf("window (1,2] sees %d T1 chunks, want %d", len(only2), perStep)
	}
	for _, d := range only2 {
		if d.Version != 2 {
			t.Fatalf("chunk %d stamped version %d, want 2", d.Chunk, d.Version)
		}
	}
	// Window (0, 1]: exactly the base.
	atBase, err := cat.ChunksInRange("T1", metadata.Range{Versions: metadata.VersionWindow{Until: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(atBase) != len(base) {
		t.Fatalf("pinned-at-1 sees %d chunks, want base %d", len(atBase), len(base))
	}
	all, err := cat.ChunksInRange("T1", metadata.Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(base)+3*perStep {
		t.Fatalf("unpinned sees %d chunks, want %d", len(all), len(base)+3*perStep)
	}
	if got := reg.Counter("sciview_ingest_appends_total", "").Value(); got != 3 {
		t.Fatalf("appends counter = %d, want 3", got)
	}
}

// TestAppendEqualsFullGeneration: the base dataset plus every appended
// time-step batch answers queries identically to a one-shot generation of
// the full grid — appending is not a second-class way to build a dataset.
func TestAppendEqualsFullGeneration(t *testing.T) {
	cl, in, batches, _ := liveCluster(t, 3)
	for _, b := range batches {
		if _, err := in.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	full, err := oilres.Generate(stepCfg())
	if err != nil {
		t.Fatal(err)
	}
	fullCl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 8 << 20,
	}, full.Catalog, full.Stores)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"T1", "T2"} {
		a, err := cl.Catalog.ChunksInRange(table, metadata.Range{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.Catalog.ChunksInRange(table, metadata.Range{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d chunks appended vs %d generated", table, len(a), len(b))
		}
		for i := range a {
			if a[i].Chunk != b[i].Chunk || a[i].Rows != b[i].Rows ||
				a[i].Node != b[i].Node || !a[i].Bounds.Equal(b[i].Bounds) {
				t.Fatalf("%s chunk %d: appended %+v vs generated %+v", table, i, a[i], b[i])
			}
		}
	}
	views := []*dds.JoinView{
		testView(),
		testView(query.Pred{Attr: "x", Lo: 1, Hi: 5}, query.Pred{Attr: "z", Lo: 3, Hi: 20}),
	}
	for _, v := range views {
		grown := encodeRows(t, joinAt(t, cl, v, cl.Catalog.Version()))
		oneShot := encodeRows(t, joinAt(t, fullCl, v, fullCl.Catalog.Version()))
		if !bytes.Equal(grown, oneShot) {
			t.Fatalf("view %s on grown dataset differs from one-shot generation", v.Name)
		}
	}
}

// TestSnapshotIsolation: a reader pinned to the version it admitted under
// is byte-identical before and after any number of appends; an unpinned
// reader sees the appended rows.
func TestSnapshotIsolation(t *testing.T) {
	cl, in, batches, _ := liveCluster(t, 2)
	v := testView(query.Pred{Attr: "x", Lo: 0, Hi: 6})
	pin := cl.Catalog.Version()
	before := encodeRows(t, joinAt(t, cl, v, pin))

	// Scan path too: pin a base-table scan.
	sn, err := plan.NewScan(cl, "T1", nil, []string{"x", "y", "z", "oilp"}, pin)
	if err != nil {
		t.Fatal(err)
	}
	scanBefore, _, err := plan.Run(context.Background(), &plan.Plan{Root: sn, OutID: tuple.ID{Table: -1, Chunk: -1}})
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range batches {
		if _, err := in.Append(b); err != nil {
			t.Fatal(err)
		}
	}

	after := encodeRows(t, joinAt(t, cl, v, pin))
	if !bytes.Equal(before, after) {
		t.Fatal("pinned join result changed across appends")
	}
	sn2, err := plan.NewScan(cl, "T1", nil, []string{"x", "y", "z", "oilp"}, pin)
	if err != nil {
		t.Fatal(err)
	}
	scanAfter, _, err := plan.Run(context.Background(), &plan.Plan{Root: sn2, OutID: tuple.ID{Table: -1, Chunk: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRows(t, scanBefore), encodeRows(t, scanAfter)) {
		t.Fatal("pinned scan result changed across appends")
	}

	fresh := joinAt(t, cl, v, cl.Catalog.Version())
	old := joinAt(t, cl, v, pin)
	if fresh.NumRows() <= old.NumRows() {
		t.Fatalf("unpinned reader sees %d rows, pinned %d: appends invisible", fresh.NumRows(), old.NumRows())
	}
}

// TestStaleness: a view is stale exactly when the catalog resolves a chunk
// inside its filter committed after its version. Every view here is built
// from a bare ViewConfig — nothing registers it anywhere — and the appended
// slabs live at high z, so a view on the base slab must never go stale.
func TestStaleness(t *testing.T) {
	const steps = 4
	cl, in, batches, _ := liveCluster(t, steps)
	pl := planner.New()
	materialize := func(where ...query.Pred) *MaterializedView {
		t.Helper()
		m, err := NewMaterializedView(ViewConfig{Cluster: cl, Planner: pl, View: testView(where...)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	baseZ := float64(stepCfg().Grid.Z - steps*4) // grid minus the withheld slabs of stepZ=4
	cold := materialize(query.Pred{Attr: "z", Lo: 0, Hi: baseZ - 1})
	hot := materialize(query.Pred{Attr: "z", Lo: baseZ - 1, Hi: 1e9}) // the last base layer onward
	whole := materialize()
	for i, b := range batches[:2] {
		if hot.Stale() || whole.Stale() {
			t.Fatalf("before batch %d: a freshly refreshed view reports stale", i)
		}
		if _, err := in.Append(b); err != nil {
			t.Fatal(err)
		}
		if cold.Stale() {
			t.Fatalf("batch %d: base-slab view stale; the append was outside its region", i)
		}
		if !hot.Stale() || !whole.Stale() {
			t.Fatalf("batch %d: view over the appended slab not stale", i)
		}
		for _, m := range []*MaterializedView{hot, whole} {
			if _, err := m.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The rest land while Stale and Refresh run: once the appends are done,
	// one more Refresh leaves the view current, whatever the interleaving.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches[2:] {
			if _, err := in.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if !hot.Stale() {
			continue
		}
		if _, err := hot.Refresh(); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if _, err := hot.Refresh(); err != nil {
		t.Fatal(err)
	}
	if hot.Stale() {
		t.Fatal("view stale after refreshing past every append")
	}
	if cold.Stale() {
		t.Fatal("base-slab view stale after the concurrent appends")
	}
	if late := materialize(query.Pred{Attr: "z", Lo: baseZ, Hi: 1e9}); late.Stale() {
		t.Fatal("a view materialized after the appends reports stale")
	}
}

// TestDeltaRefreshMatchesFull is the tentpole differential: across
// randomized append sequences and several view shapes, delta-join
// maintenance must stay byte-identical to recomputing the view from
// scratch at the same version.
func TestDeltaRefreshMatchesFull(t *testing.T) {
	views := []*dds.JoinView{
		testView(),
		testView(query.Pred{Attr: "x", Lo: 1, Hi: 5}),
		testView(query.Pred{Attr: "z", Lo: 6, Hi: 18}, query.Pred{Attr: "y", Lo: 0, Hi: 7}),
	}
	rng := rand.New(rand.NewSource(41))
	for vi, v := range views {
		t.Run(fmt.Sprintf("view%d", vi), func(t *testing.T) {
			cl, in, batches, reg := liveCluster(t, 4)
			pl := planner.New()
			m, err := NewMaterializedView(ViewConfig{
				Cluster: cl, Planner: pl, View: v, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Randomize the append rhythm: sometimes several batches land
			// between refreshes, so a single Refresh folds a multi-version
			// delta window.
			for len(batches) > 0 {
				n := 1 + rng.Intn(len(batches))
				for _, b := range batches[:n] {
					if _, err := in.Append(b); err != nil {
						t.Fatal(err)
					}
				}
				batches = batches[n:]
				if !m.Stale() {
					t.Fatal("view not marked stale after an intersecting commit")
				}
				ver, err := m.Refresh()
				if err != nil {
					t.Fatal(err)
				}
				if ver != cl.Catalog.Version() {
					t.Fatalf("refresh reached version %d, catalog at %d", ver, cl.Catalog.Version())
				}
				got, gotVer := m.Rows()
				oracle := &MaterializedView{cfg: ViewConfig{Cluster: cl, Planner: pl, View: v}}
				if _, err := oracle.RefreshFull(); err != nil {
					t.Fatal(err)
				}
				want, wantVer := oracle.Rows()
				if gotVer != wantVer {
					t.Fatalf("delta at version %d, oracle at %d", gotVer, wantVer)
				}
				if !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
					t.Fatalf("delta-maintained view diverged from full recompute at version %d (%d vs %d rows)",
						gotVer, got.NumRows(), want.NumRows())
				}
			}
			if got := reg.Counter("sciview_ingest_refreshes_total", "", "mode", "delta").Value(); got == 0 {
				t.Fatal("no delta refreshes counted")
			}
		})
	}
}

// TestIngestWhileQuerying exercises the full concurrency story under
// -race: an ingest goroutine commits batches while pinned readers assert
// their snapshot never changes and fresh readers make progress.
func TestIngestWhileQuerying(t *testing.T) {
	cl, in, batches, _ := liveCluster(t, 4)
	v := testView()
	pin := cl.Catalog.Version()
	want := encodeRows(t, joinAt(t, cl, v, pin))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if _, err := in.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		got := encodeRows(t, joinAt(t, cl, v, pin))
		if !bytes.Equal(want, got) {
			t.Fatalf("pinned read %d changed under concurrent ingest", i)
		}
	}
	wg.Wait()
	fresh := joinAt(t, cl, v, cl.Catalog.Version())
	old := joinAt(t, cl, v, pin)
	if fresh.NumRows() <= old.NumRows() {
		t.Fatal("post-ingest unpinned read does not see the appended slabs")
	}
}

// BenchmarkViewMaintenance compares folding one appended time step into a
// materialized view by delta join against recomputing it from scratch —
// the PR's headline efficiency claim.
func BenchmarkViewMaintenance(b *testing.B) {
	for _, mode := range []string{"delta", "full"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, in, batches, _ := liveCluster(b, 1)
				m, err := NewMaterializedView(ViewConfig{
					Cluster: cl, Planner: planner.New(), View: testView(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := in.Append(batches[0]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if mode == "delta" {
					_, err = m.Refresh()
				} else {
					_, err = m.RefreshFull()
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		})
	}
}

// TestRefreshFeedsThePlanner: view maintenance decides each term through
// the planner, so its runs must score those decisions like any other
// statement's — the initial materialization and a delta refresh both move
// the estimator's sample counts.
func TestRefreshFeedsThePlanner(t *testing.T) {
	cl, in, batches, _ := liveCluster(t, 1)
	pl := planner.New()
	m, err := NewMaterializedView(ViewConfig{Cluster: cl, Planner: pl, View: testView()})
	if err != nil {
		t.Fatal(err)
	}
	full := pl.Est.Snapshot().AlphaSamples
	if full == 0 {
		t.Fatal("the initial full materialization fed the estimator nothing")
	}
	if _, err := in.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := pl.Est.Snapshot().AlphaSamples; got <= full {
		t.Errorf("delta refresh left the alpha samples at %d", got)
	}
}
