package repair

import (
	"testing"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
)

// testRig generates a small replicated dataset over `nodes` storage nodes,
// assembles a cluster with fault injection, and builds (without starting)
// a repair manager converging toward `replicas` placements per chunk.
func testRig(t *testing.T, nodes, replicas int) (*cluster.Cluster, *fault.Injector, *Manager, *oilres.Dataset) {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid:         partition.D(8, 8, 4),
		LeftPart:     partition.D(2, 2, 2),
		RightPart:    partition.D(2, 2, 2),
		StorageNodes: nodes,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, replicas); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	cl, err := cluster.New(cluster.Config{
		StorageNodes: nodes, ComputeNodes: 1, CacheBytes: 8 << 20,
		Faults:           inj,
		Retry:            retry.Policy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond},
		BreakerThreshold: 3, BreakerCooldown: 10 * time.Millisecond,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Cluster: cl, Replicas: replicas, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return cl, inj, m, ds
}

func TestInferReplicas(t *testing.T) {
	_, _, m, ds := testRig(t, 4, 2)
	if got := InferReplicas(ds.Catalog); got != 2 {
		t.Fatalf("InferReplicas = %d, want 2", got)
	}
	if m.Replicas() != 2 {
		t.Fatalf("Replicas() = %d, want 2", m.Replicas())
	}
}

func TestSweepRestoresReplicationFactor(t *testing.T) {
	cl, inj, m, _ := testRig(t, 4, 2)

	// Healthy tier: one pass finds nothing to do and the tier audits clean.
	m.tick()
	if s := m.Stats(); s.UnderReplicated != 0 || s.ChunksRepaired != 0 {
		t.Fatalf("healthy sweep: %+v", s)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if !m.Converged() {
		t.Fatal("healthy tier not converged")
	}

	// Crash a node: every chunk with a copy there drops to one available
	// placement, and the sweep re-replicates onto the remaining nodes.
	inj.Kill(fault.StorageNode(0))
	m.tick()
	if st := cl.StorageState(0); st != cluster.NodeDown {
		t.Fatalf("node 0 state = %v after crash, want down", st)
	}
	s := m.Stats()
	if s.ChunksRepaired == 0 || s.BytesRepaired == 0 {
		t.Fatalf("sweep repaired nothing: %+v", s)
	}
	if s.UnderReplicated != 0 {
		t.Fatalf("under-replicated after sweep with 3 healthy nodes: %+v", s)
	}
	// Every chunk again has >= 2 placements with byte-identical copies.
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	// Down node -> not converged.
	if m.Converged() {
		t.Fatal("converged with a node down")
	}

	// Revive: the node rejoins (store intact, nothing missed) and the tier
	// converges.
	inj.Revive(fault.StorageNode(0))
	m.tick()
	if st := cl.StorageState(0); st != cluster.NodeUp {
		t.Fatalf("node 0 state = %v after rejoin, want up", st)
	}
	if !m.Converged() {
		t.Fatalf("not converged after rejoin: %+v", m.Stats())
	}
	if s := m.Stats(); s.CatchUps != 1 {
		t.Fatalf("CatchUps = %d, want 1", s.CatchUps)
	}
}

// TestRegistrySamplesStats: the sciview_repair_* series read the
// manager's own accounting at scrape time, through an outage and a rejoin.
func TestRegistrySamplesStats(t *testing.T) {
	_, inj, m, _ := testRig(t, 4, 2)
	reg := metrics.NewRegistry()
	m.registerSampled(reg)
	check := func(when string, nodeState float64) {
		t.Helper()
		s := m.Stats()
		want := map[string]float64{
			"sciview_repair_catchups_total":          float64(s.CatchUps),
			"sciview_repair_chunks_total":            float64(s.ChunksRepaired),
			"sciview_repair_bytes_total":             float64(s.BytesRepaired),
			"sciview_repair_rebuilds_total":          float64(s.ObjectsRebuilt),
			"sciview_repair_already_placed_total":    float64(s.AlreadyPlaced),
			"sciview_repair_errors_total":            float64(s.Errors),
			"sciview_repair_sweeps_total":            float64(s.Sweeps),
			"sciview_underreplicated_chunks":         float64(s.UnderReplicated),
			`sciview_node_state{node="0"}`:           nodeState,
			`sciview_node_versions_behind{node="0"}`: float64(s.VersionsBehind[0]),
		}
		for _, sample := range reg.Snapshot() {
			if v, ok := want[sample.Name]; ok {
				if sample.Value != v {
					t.Errorf("%s: %s = %v, Stats says %v (%+v)", when, sample.Name, sample.Value, v, s)
				}
				delete(want, sample.Name)
			}
		}
		if len(want) != 0 {
			t.Errorf("%s: series not exposed: %v", when, want)
		}
	}
	inj.Kill(fault.StorageNode(0))
	m.tick()
	if m.Stats().ChunksRepaired == 0 {
		t.Fatal("the outage repaired nothing: the test samples only zeros")
	}
	check("node 0 down", float64(cluster.NodeDown))
	inj.Revive(fault.StorageNode(0))
	m.tick()
	check("node 0 rejoined", float64(cluster.NodeUp))
}

func TestSweepCountsUnfixableExposure(t *testing.T) {
	// 2 nodes, RF2: with one node down there is no healthy destination, so
	// the sweep must report the exposure rather than claim convergence.
	_, inj, m, ds := testRig(t, 2, 2)
	inj.Kill(fault.StorageNode(1))
	m.tick()
	s := m.Stats()
	total := len(ds.Catalog.ChunksSince(0))
	if s.UnderReplicated != int64(total) {
		t.Fatalf("UnderReplicated = %d, want all %d chunks", s.UnderReplicated, total)
	}
	if s.ChunksRepaired != 0 {
		t.Fatalf("repaired %d chunks with no healthy destination", s.ChunksRepaired)
	}
	inj.Revive(fault.StorageNode(1))
	m.tick()
	if s := m.Stats(); s.UnderReplicated != 0 {
		t.Fatalf("UnderReplicated = %d after revival", s.UnderReplicated)
	}
}

func TestCopyChunkIdempotent(t *testing.T) {
	cl, _, m, ds := testRig(t, 4, 2)
	d := ds.Catalog.Chunks(ds.Left.ID)[0]
	nodes, _ := cl.Catalog.ChunkNodes(d.Table, d.Chunk)
	dst := -1
	for n := 0; n < 4; n++ {
		already := false
		for _, held := range nodes {
			if held == n {
				already = true
			}
		}
		if !already {
			dst = n
			break
		}
	}
	if dst < 0 {
		t.Fatal("no free destination node")
	}
	if err := m.copyChunk(d, dst); err != nil {
		t.Fatalf("first copy: %v", err)
	}
	if err := m.copyChunk(d, dst); err != nil {
		t.Fatalf("second copy must be idempotent, got %v", err)
	}
	s := m.Stats()
	if s.ChunksRepaired != 1 || s.AlreadyPlaced != 1 {
		t.Fatalf("stats = %+v, want 1 repaired + 1 already-placed", s)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCatchUpRebuildsWipedStore(t *testing.T) {
	cl, inj, m, ds := testRig(t, 3, 2)

	// Take node 1 down, then wipe its store: the crash lost the disk.
	inj.Kill(fault.StorageNode(1))
	m.tick()
	store := ds.Stores[1]
	objs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) == 0 {
		t.Fatal("node 1 store unexpectedly empty before wipe")
	}
	for _, obj := range objs {
		if err := store.Delete(obj); err != nil {
			t.Fatal(err)
		}
	}
	broken, err := m.VerifyNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) == 0 {
		t.Fatal("VerifyNode found nothing broken after a full wipe")
	}

	// The node returns: catch-up must rebuild every object it is supposed
	// to hold from surviving replicas before trusting it.
	inj.Revive(fault.StorageNode(1))
	m.tick()
	if st := cl.StorageState(1); st != cluster.NodeUp {
		t.Fatalf("node 1 state = %v after rebuild, want up", st)
	}
	s := m.Stats()
	if s.ObjectsRebuilt == 0 {
		t.Fatalf("no objects rebuilt: %+v", s)
	}
	if broken, _ := m.VerifyNode(1); len(broken) != 0 {
		t.Fatalf("still broken after rebuild: %v", broken)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if !m.Converged() {
		t.Fatal("not converged after rebuild")
	}
}

func TestCatchUpAbsorbsMissedAppends(t *testing.T) {
	cl, _, m, ds := testRig(t, 3, 2)

	// Simulate a batch committed while node 2 was dark: a new chunk placed
	// on node 0 only (ingest avoided the down node; replication skipped it
	// too, leaving it under-replicated).
	base := ds.Catalog.Chunks(ds.Left.ID)[0]
	data, err := ds.Stores[base.Node].ReadRange(base.Object, base.Offset, base.Size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Stores[0].Put("append/T1/node0.dat", data); err != nil {
		t.Fatal(err)
	}
	d := &chunk.Desc{
		Table: base.Table, Object: "append/T1/node0.dat", Offset: 0, Size: base.Size,
		Node: 0, Format: base.Format, Attrs: base.Attrs, Rows: base.Rows, Bounds: base.Bounds,
	}
	if _, err := ds.Catalog.AppendVersion([]*chunk.Desc{d}); err != nil {
		t.Fatal(err)
	}

	// Node 2 rejoins knowing only the pre-append version.
	cl.SetStorageState(2, cluster.NodeRejoining)
	if err := m.catchUp(2); err != nil {
		t.Fatal(err)
	}
	cl.SetStorageState(2, cluster.NodeUp)

	nodes, err := cl.Catalog.ChunkNodes(d.Table, d.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[1] != 2 {
		t.Fatalf("appended chunk placements = %v, want [0 2]", nodes)
	}
	if lag := m.Stats().VersionsBehind[2]; lag != 0 {
		t.Fatalf("node 2 still %d versions behind after catch-up", lag)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerLoopAndKick(t *testing.T) {
	_, inj, m, _ := testRig(t, 3, 2)
	m.Start()
	defer m.Stop()

	inj.Kill(fault.StorageNode(0))
	waitFor(t, func() bool { return m.Stats().NodeStates[0] == "down" }, "down detection")
	inj.Revive(fault.StorageNode(0))
	m.Kick()
	waitFor(t, func() bool { return m.Converged() }, "convergence after revival")
	m.Stop()
	m.Stop() // idempotent
}

func TestReadFromPeerNoSource(t *testing.T) {
	_, _, m, ds := testRig(t, 3, 1) // RF1: single placements
	d := ds.Catalog.Chunks(ds.Left.ID)[0]
	if _, _, err := m.readFromPeer(d, d.Node); err == nil {
		t.Fatal("readFromPeer found a peer for an unreplicated chunk")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
