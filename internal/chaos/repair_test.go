package chaos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/ij"
	"sciview/internal/ingest"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/repair"
)

// TestCrashRestartConverge is the self-healing headline scenario: a
// seeded restart rule takes a storage node down mid-query, an append
// batch commits while it is dark (ingest routes around it), and the node
// then returns. The repair tier must detect the outage (under-replication
// gauge rises — with RF 3 over 3 nodes there is no spare, so the exposure
// is honest), catch the node up to the head catalog version when it
// rejoins, restore the replication factor with bytes durable before every
// placement commit, and converge — while a version-pinned golden query
// stays byte-identical throughout.
func TestCrashRestartConverge(t *testing.T) {
	// Base grid plus one withheld time-step slab to append mid-outage.
	ds, steps, err := oilres.GenerateSteps(oilres.Config{
		Grid:         partition.D(16, 16, 12),
		LeftPart:     partition.D(4, 4, 4),
		RightPart:    partition.D(4, 4, 4),
		StorageNodes: storageNodes,
		Seed:         7,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// RF 3 over 3 nodes: every chunk everywhere, so one node down leaves
	// no healthy destination and the sweep must report the exposure.
	if err := oilres.Replicate(ds.Catalog, ds.Stores, storageNodes); err != nil {
		t.Fatal(err)
	}

	// Golden corpus: the fault-free answer, pinned to the base version so
	// it is comparable before, during and after the outage and the append.
	e := ij.New()
	clean, _ := chaosCluster(t, ds, "")
	baseVersion := ds.Catalog.Version()
	pinned := chaosReq()
	pinned.AsOf = baseVersion
	base, err := engine.RunRequest(context.Background(), e, clean, pinned)
	if err != nil {
		t.Fatal(err)
	}
	golden := rowsExact(base.Collected)

	// The chaos run: storage-1 crashes at its 5th fetch and the injector
	// revives it after 600 further recorded operations — several queries'
	// worth of traffic later.
	cl, inj := chaosCluster(t, ds, "restart:storage-1:fetch:5:600")
	m, err := repair.New(repair.Config{Cluster: cl, Replicas: storageNodes, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	ing, err := ingest.New(ingest.Config{
		Catalog:  ds.Catalog,
		Stores:   ds.Stores,
		Replicas: storageNodes,
		Avoid:    func(node int) bool { return !cl.StorageAvailable(node) },
	})
	if err != nil {
		t.Fatal(err)
	}

	goldenQuery := func(label string) {
		t.Helper()
		res, err := engine.RunRequest(context.Background(), e, cl, pinned)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, rowsExact(res.Collected), golden)
	}

	// Phase 1: query until the restart rule fires. The query that loses
	// the node mid-fetch completes through replica failover, still golden.
	for i := 0; i < 5 && inj.Stats().Crashes == 0; i++ {
		goldenQuery(fmt.Sprintf("query %d under restart schedule", i))
	}
	if c := inj.Stats().Crashes; c != 1 {
		t.Fatalf("crashes = %d, want 1", c)
	}

	// Phase 2: the repair tier detects the outage and the gauge rises.
	waitRepair(t, func() bool { return m.Stats().NodeStates[1] == "down" }, "down detection")
	waitRepair(t, func() bool { return m.Stats().UnderReplicated > 0 }, "under-replication exposure")

	// Phase 3: append while dark. Ingest must route the batch around the
	// dead node and commit it under-replicated; the node's version lag is
	// now visible.
	v, err := ing.Append(ingest.FromStepChunks(0, steps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if v != baseVersion+1 {
		t.Fatalf("append committed version %d, want %d", v, baseVersion+1)
	}
	for _, d := range ds.Catalog.ChunksSince(baseVersion) {
		nodes, err := ds.Catalog.ChunkNodes(d.Table, d.Chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if n == 1 {
				t.Fatalf("append placed chunk %v on the dead node (placements %v)", d.ID(), nodes)
			}
		}
	}
	waitRepair(t, func() bool { return m.Stats().VersionsBehind[1] > 0 }, "version lag on the dead node")

	// Phase 4: degraded reads stay golden.
	goldenQuery("pinned query while degraded")

	// Phase 5: keep traffic flowing until the schedule revives the node,
	// then the tier must converge — node up, caught up, RF restored.
	for i := 0; i < 50 && inj.Stats().Restarts == 0; i++ {
		goldenQuery(fmt.Sprintf("drain query %d", i))
	}
	if r := inj.Stats().Restarts; r != 1 {
		t.Fatalf("restarts = %d, want 1 (downtime never elapsed)", r)
	}
	waitRepair(t, m.Converged, "convergence after restart")

	s := m.Stats()
	if s.CatchUps == 0 {
		t.Fatalf("no catch-up replay ran: %+v", s)
	}
	if s.ChunksRepaired == 0 || s.BytesRepaired == 0 {
		t.Fatalf("repair moved no bytes: %+v", s)
	}
	if s.UnderReplicated != 0 || s.VersionsBehind[1] != 0 || s.NodeStates[1] != "up" {
		t.Fatalf("not healthy after convergence: %+v", s)
	}

	// The convergence proof: every chunk (appended ones included) at RF 3,
	// every placement durable, every copy byte-identical to its primary.
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}

	// Phase 6: pinned reads still golden, and a head-version query on the
	// healed cluster matches the fault-free cluster over the same catalog.
	goldenQuery("pinned query after convergence")
	head := chaosReq()
	wantHead, err := engine.RunRequest(context.Background(), e, clean, head)
	if err != nil {
		t.Fatal(err)
	}
	gotHead, err := engine.RunRequest(context.Background(), e, cl, head)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "head query after convergence", rowsExact(gotHead.Collected), rowsExact(wantHead.Collected))
	if st := cl.StorageState(1); st != cluster.NodeUp {
		t.Fatalf("node 1 state = %v at end, want up", st)
	}
}

func waitRepair(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
