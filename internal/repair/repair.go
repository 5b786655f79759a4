// Package repair closes the storage tier's availability loop. PR 2 made
// reads survive node death (replica failover, breakers); without repair a
// crashed node stays routed-around forever and every crash permanently
// lowers the replication factor. The Manager watches the chaos schedule's
// node lifecycle, runs catch-up replay when a node returns — diffing the
// node's store against the catalog's version history and copying the bytes
// of append batches it missed from surviving replicas — and periodically
// sweeps the catalog for under-replicated chunks, re-replicating them onto
// healthy nodes (anti-entropy).
//
// Two invariants govern every byte it moves:
//
//   - Durable before visible: a placement is committed to the catalog
//     (Catalog.AddReplica) only after its bytes are durable in the
//     destination node's store — the same ordering the ingest path uses —
//     so the instant routing can choose a placement, it can read it.
//   - Charged and capped: repair traffic flows through the throttled simio
//     disks and NICs of the nodes involved, plus a dedicated repair
//     bandwidth throttle, so convergence pays modeled I/O like any query
//     but cannot starve the query path.
package repair

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/simio"
)

// Config assembles a Manager.
type Config struct {
	// Cluster is the platform being repaired.
	Cluster *cluster.Cluster
	// Replicas is the configured replication factor (total placements per
	// chunk, primary included), clamped to the storage node count. 0 infers
	// it from the catalog's current maximum placement count.
	Replicas int
	// Interval is the anti-entropy sweep period. 0 means DefaultInterval.
	Interval time.Duration
	// Bandwidth caps repair traffic in bytes/second on top of the per-node
	// disk and NIC throttles (0 = uncapped).
	Bandwidth float64
	// Metrics, when set, registers the sciview_repair_* counters, the
	// under-replication gauge and the per-node state/lag gauges, all
	// sampled from Stats at scrape time.
	Metrics *metrics.Registry
}

// DefaultInterval is the sweep period when Config.Interval is 0.
const DefaultInterval = 500 * time.Millisecond

// Stats is a point-in-time snapshot of repair activity, the shape
// surfaced through the service stats RPC and the bench report.
type Stats struct {
	// CatchUps counts completed catch-up replays (node rejoins).
	CatchUps int64
	// ChunksRepaired counts placements laid by catch-up and anti-entropy.
	ChunksRepaired int64
	// BytesRepaired is the payload bytes those placements moved.
	BytesRepaired int64
	// ObjectsRebuilt counts node-local objects reconstructed from peers
	// (store wipe or truncation discovered at rejoin).
	ObjectsRebuilt int64
	// AlreadyPlaced counts placement commits that found the catalog already
	// converged (idempotent overlap between catch-up and the sweep).
	AlreadyPlaced int64
	// Errors counts failed copy or rebuild attempts (retried next sweep).
	Errors int64
	// Sweeps counts completed anti-entropy passes.
	Sweeps int64
	// UnderReplicated is the last sweep's count of chunks below the
	// replication factor on available nodes.
	UnderReplicated int64
	// NodeStates is each storage node's lifecycle state ("up", "down",
	// "rejoining").
	NodeStates []string
	// VersionsBehind is each storage node's catalog-version lag: 0 for a
	// converged node, head−synced for one that is down or rejoining.
	VersionsBehind []int64
}

// Zero reports whether no repair activity was recorded.
func (s Stats) Zero() bool {
	for _, v := range s.VersionsBehind {
		if v != 0 {
			return false
		}
	}
	return s.CatchUps == 0 && s.ChunksRepaired == 0 && s.BytesRepaired == 0 &&
		s.ObjectsRebuilt == 0 && s.AlreadyPlaced == 0 && s.Errors == 0 &&
		s.UnderReplicated == 0
}

// Manager owns node lifecycle transitions and runs the repair loop. Start
// it once; Kick nudges it out of its sweep interval (the fault injector's
// restart notification is wired here so rejoin begins without polling lag).
type Manager struct {
	cfg      Config
	cl       *cluster.Cluster
	replicas int
	bw       *simio.Throttle

	mu     sync.Mutex
	synced []int64 // per-node: last catalog version fully absorbed
	stats  Stats

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds a Manager over the cluster. Nodes start converged: synced at
// the catalog's current version.
func New(cfg Config) (*Manager, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("repair: nil cluster")
	}
	cl := cfg.Cluster
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = InferReplicas(cl.Catalog)
	}
	if replicas > len(cl.Storage) {
		replicas = len(cl.Storage)
	}
	if replicas < 1 {
		replicas = 1
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	m := &Manager{
		cfg:      cfg,
		cl:       cl,
		replicas: replicas,
		bw:       simio.NewThrottle(cfg.Bandwidth),
		synced:   make([]int64, len(cl.Storage)),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	head := cl.Catalog.Version()
	for i := range m.synced {
		m.synced[i] = head
	}
	m.registerSampled(cfg.Metrics)
	// Restart notifications cut the polling lag between a node's revival
	// and the start of its catch-up.
	cl.Config.Faults.SetOnRestart(func(string) { m.Kick() })
	return m, nil
}

// InferReplicas returns the catalog's current maximum placement count —
// the replication factor the dataset was loaded with.
func InferReplicas(cat *metadata.Catalog) int {
	max := 1
	for _, d := range cat.ChunksSince(0) {
		if n := 1 + len(d.Replicas); n > max {
			max = n
		}
	}
	return max
}

// Replicas returns the replication factor the manager converges toward.
func (m *Manager) Replicas() int { return m.replicas }

// Start launches the repair loop.
func (m *Manager) Start() {
	go m.loop()
}

// Stop terminates the loop and waits for the in-flight pass to finish.
func (m *Manager) Stop() {
	select {
	case <-m.stop:
		return // already stopped
	default:
	}
	close(m.stop)
	<-m.done
}

// Kick nudges the loop to run a pass now instead of at the next interval.
// Never blocks; safe from the injector's I/O-path callback.
func (m *Manager) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

func (m *Manager) loop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		m.tick()
		select {
		case <-m.stop:
			return
		case <-t.C:
		case <-m.kick:
		}
	}
}

// tick is one repair pass: reconcile node lifecycles with the fault
// injector's view, run catch-up for every node that returned, then sweep
// for under-replication.
func (m *Manager) tick() {
	for i := range m.cl.Storage {
		down := m.cl.Config.Faults.Down(fault.StorageNode(i))
		state := m.cl.StorageState(i)
		switch {
		case down && state != cluster.NodeDown:
			// Failure detection: routing deprioritizes the node and ingest
			// stops placing on it. Its version lag starts accruing.
			m.cl.SetStorageState(i, cluster.NodeDown)
		case !down && state != cluster.NodeUp:
			// The node is back. Rejoining = readable-as-fallback but not
			// trusted for placement until caught up.
			m.cl.SetStorageState(i, cluster.NodeRejoining)
			if err := m.catchUp(i); err != nil {
				m.noteError()
				continue // still rejoining; retried next pass
			}
			m.cl.SetStorageState(i, cluster.NodeUp)
		}
	}
	m.sweep()
}

// catchUp replays what storage node `node` missed: it verifies every
// node-local object referenced by placements naming the node (rebuilding
// from surviving replicas any the store lost), then absorbs copies of the
// chunks committed while it was dark, and finally marks the node synced at
// the catalog version observed when the replay began.
func (m *Manager) catchUp(node int) error {
	head := m.cl.Catalog.Version()

	// Phase 1: the store may have lost objects with the node (wipe,
	// truncation). Placements the catalog already trusts must be readable
	// the instant routing prefers this node again.
	broken, err := m.VerifyNode(node)
	if err != nil {
		return err
	}
	for _, obj := range broken {
		if err := m.rebuildObject(node, obj); err != nil {
			return fmt.Errorf("repair: rebuilding %q on node %d: %w", obj, node, err)
		}
	}

	// Phase 2: chunks committed while the node was down were placed
	// elsewhere (ingest avoids down nodes). Absorb a copy of every such
	// chunk still below the replication factor, preferring this node as
	// the destination so the missed appends land here.
	since := m.syncedVersion(node)
	for _, d := range m.cl.Catalog.ChunksSince(since) {
		nodes, err := m.cl.Catalog.ChunkNodes(d.Table, d.Chunk)
		if err != nil {
			return err
		}
		if len(nodes) >= m.replicas || holds(nodes, node) {
			continue
		}
		if err := m.copyChunk(d, node); err != nil {
			return err
		}
	}

	m.mu.Lock()
	m.synced[node] = head
	m.stats.CatchUps++
	m.mu.Unlock()
	return nil
}

// VerifyNode checks that every placement naming the node is durably
// readable in its store, returning the (sorted by first reference) object
// names whose bytes are missing or truncated.
func (m *Manager) VerifyNode(node int) ([]string, error) {
	store := m.cl.Storage[node].Disk.Store()
	return VerifyStore(m.cl.Catalog, node, store.Size), nil
}

// VerifyStore is the store-level integrity check behind VerifyNode: it
// reports the objects on storage node `node` whose catalog placements are
// not durably readable at their required sizes (missing or truncated).
// size reads an object's current length; an error means missing. It needs
// only a catalog and a store, so a standalone BDS process (sciview-node)
// can run the same check the Manager's rejoin path uses.
func VerifyStore(cat *metadata.Catalog, node int, size func(object string) (int64, error)) []string {
	need := make(map[string]int64) // object -> required minimum size
	var order []string
	for _, d := range cat.ChunksSince(0) {
		obj, off, ok := cat.LocateOn(d.Table, d.Chunk, node)
		if !ok {
			continue
		}
		if _, seen := need[obj]; !seen {
			order = append(order, obj)
		}
		if end := off + d.Size; end > need[obj] {
			need[obj] = end
		}
	}
	var broken []string
	for _, obj := range order {
		sz, err := size(obj)
		if err != nil || sz < need[obj] {
			broken = append(broken, obj)
		}
	}
	return broken
}

// rebuildObject reconstructs one node-local object from surviving
// replicas: every chunk the catalog places in that object on that node is
// read from a peer and written back at its recorded offset, then the whole
// object is stored atomically (Put) through the node's throttled disk.
func (m *Manager) rebuildObject(node int, object string) error {
	type piece struct {
		d   *chunk.Desc
		off int64
	}
	var pieces []piece
	var size int64
	for _, d := range m.cl.Catalog.ChunksSince(0) {
		obj, off, ok := m.cl.Catalog.LocateOn(d.Table, d.Chunk, node)
		if !ok || obj != object {
			continue
		}
		pieces = append(pieces, piece{d, off})
		if end := off + d.Size; end > size {
			size = end
		}
	}
	buf := make([]byte, size)
	for _, p := range pieces {
		data, _, err := m.readFromPeer(p.d, node)
		if err != nil {
			return err
		}
		copy(buf[p.off:p.off+p.d.Size], data)
	}
	// Durable before visible: the placements already exist in the catalog,
	// so the object must be complete before it lands. Put replaces it in
	// one operation through the node's write throttle.
	if err := m.cl.Storage[node].Disk.Put(object, buf); err != nil {
		return err
	}
	m.mu.Lock()
	m.stats.ObjectsRebuilt++
	m.stats.BytesRepaired += size
	m.mu.Unlock()
	return nil
}

// readFromPeer reads a chunk's bytes from a surviving copy on a node other
// than `not`, preferring available nodes, charging the source disk, the
// repair bandwidth cap and both NICs.
func (m *Manager) readFromPeer(d *chunk.Desc, not int) ([]byte, int, error) {
	nodes, err := m.cl.Catalog.ChunkNodes(d.Table, d.Chunk)
	if err != nil {
		return nil, -1, err
	}
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, src := range nodes {
			if src == not {
				continue
			}
			// First pass: only available sources. Second: anything — a
			// stale lifecycle view must not fail a rebuild the bytes could
			// serve.
			if pass == 0 && !m.cl.StorageAvailable(src) {
				continue
			}
			obj, off, ok := m.cl.Catalog.LocateOn(d.Table, d.Chunk, src)
			if !ok {
				continue
			}
			data, err := m.cl.Storage[src].Disk.ReadRange(obj, off, d.Size, nil)
			if err != nil {
				lastErr = err
				continue
			}
			simio.Wait(m.bw.Reserve(d.Size))
			simio.Transfer(m.cl.Storage[src].NIC, m.cl.Storage[not].NIC, d.Size)
			return data, src, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("repair: chunk %v has no copy outside node %d", d.ID(), not)
	}
	return nil, -1, lastErr
}

// copyChunk lays a new placement of chunk d on dst: bytes from a surviving
// replica, appended to dst's "repair/<object>" through its throttled disk,
// committed to the catalog only once durable. A concurrent commit of the
// same placement (ErrAlreadyPlaced) counts as convergence, not failure.
func (m *Manager) copyChunk(d *chunk.Desc, dst int) error {
	data, _, err := m.readFromPeer(d, dst)
	if err != nil {
		return err
	}
	disk := m.cl.Storage[dst].Disk
	obj := "repair/" + d.Object
	off, err := disk.Size(obj)
	if err != nil {
		off = 0 // object not created yet
	}
	if err := disk.Append(obj, data); err != nil {
		return err
	}
	err = m.cl.Catalog.AddReplica(d.Table, d.Chunk, chunk.Replica{Node: dst, Object: obj, Offset: off})
	if err != nil {
		if errors.Is(err, metadata.ErrAlreadyPlaced) {
			m.mu.Lock()
			m.stats.AlreadyPlaced++
			m.mu.Unlock()
			return nil
		}
		return err
	}
	m.mu.Lock()
	m.stats.ChunksRepaired++
	m.stats.BytesRepaired += d.Size
	m.mu.Unlock()
	return nil
}

// sweep is one anti-entropy pass: count each chunk's placements on
// available nodes; chunks below the replication factor are re-replicated
// onto healthy nodes not yet holding them. Chunks that cannot currently be
// fixed (no healthy destination or no reachable source) stay counted so
// the gauge reflects real exposure.
func (m *Manager) sweep() {
	var under int64
	for _, d := range m.cl.Catalog.ChunksSince(0) {
		nodes, err := m.cl.Catalog.ChunkNodes(d.Table, d.Chunk)
		if err != nil {
			continue
		}
		avail := 0
		for _, n := range nodes {
			if m.cl.StorageAvailable(n) {
				avail++
			}
		}
		if avail >= m.replicas {
			continue
		}
		// Re-replicate onto healthy nodes that hold no copy, scanning
		// round-robin from the primary for deterministic placement.
		total := len(m.cl.Storage)
		for offset := 1; offset < total && avail < m.replicas; offset++ {
			dst := (d.Node + offset) % total
			if !m.cl.StorageAvailable(dst) || holds(nodes, dst) {
				continue
			}
			if err := m.copyChunk(d, dst); err != nil {
				m.noteError()
				break // source trouble: retried next sweep
			}
			nodes = append(nodes, dst)
			avail++
		}
		if avail < m.replicas {
			under++
		}
	}
	m.mu.Lock()
	m.stats.Sweeps++
	m.stats.UnderReplicated = under
	m.mu.Unlock()
}

// registerSampled exposes the manager's accounting as series sampled at
// scrape time.
func (m *Manager) registerSampled(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	locked := func(n *int64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(*n)
		}
	}
	for _, c := range []struct {
		name, help string
		n          *int64
	}{
		{"sciview_repair_catchups_total", "Completed catch-up replays (node rejoins).", &m.stats.CatchUps},
		{"sciview_repair_chunks_total", "Chunk placements laid by repair.", &m.stats.ChunksRepaired},
		{"sciview_repair_bytes_total", "Payload bytes moved by repair.", &m.stats.BytesRepaired},
		{"sciview_repair_rebuilds_total", "Node-local objects rebuilt from surviving replicas.", &m.stats.ObjectsRebuilt},
		{"sciview_repair_already_placed_total", "Placement commits that found the catalog already converged.", &m.stats.AlreadyPlaced},
		{"sciview_repair_errors_total", "Failed repair copy or rebuild attempts.", &m.stats.Errors},
		{"sciview_repair_sweeps_total", "Completed anti-entropy sweeps.", &m.stats.Sweeps},
	} {
		reg.CounterFunc(c.name, c.help, locked(c.n))
	}
	reg.GaugeFunc("sciview_underreplicated_chunks", "Chunks below the replication factor on available nodes, as of the last sweep.",
		locked(&m.stats.UnderReplicated))
	for i := range m.cl.Storage {
		node := strconv.Itoa(i)
		reg.GaugeFunc("sciview_node_state", "Storage node lifecycle (0 up, 1 down, 2 rejoining).",
			func() float64 { return float64(m.cl.StorageState(i)) }, "node", node)
		reg.GaugeFunc("sciview_node_versions_behind", "Catalog versions a storage node has not absorbed.",
			func() float64 { return float64(m.Stats().VersionsBehind[i]) }, "node", node)
	}
}

func (m *Manager) syncedVersion(node int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.synced[node]
}

func (m *Manager) noteError() {
	m.mu.Lock()
	m.stats.Errors++
	m.mu.Unlock()
}

// Stats snapshots repair activity, including per-node lifecycle states and
// version lag.
func (m *Manager) Stats() Stats {
	head := m.cl.Catalog.Version()
	m.mu.Lock()
	s := m.stats
	s.NodeStates = make([]string, len(m.synced))
	s.VersionsBehind = make([]int64, len(m.synced))
	for i, v := range m.synced {
		state := m.cl.StorageState(i)
		s.NodeStates[i] = state.String()
		if state != cluster.NodeUp && head > v {
			s.VersionsBehind[i] = head - v
		}
	}
	m.mu.Unlock()
	return s
}

// Converged reports whether the tier is healthy: every node up, nobody
// behind the catalog, and the last sweep found no under-replication.
func (m *Manager) Converged() bool {
	s := m.Stats()
	if s.UnderReplicated != 0 {
		return false
	}
	for i, st := range s.NodeStates {
		if st != "up" || s.VersionsBehind[i] != 0 {
			return false
		}
	}
	return true
}

// holds reports whether node appears in nodes.
func holds(nodes []int, node int) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Audit is the convergence proof for tests and the bench report: every
// chunk must hold exactly min(replicas, nodes) placements, every
// placement's bytes must be durable in its node's store, and every copy
// must be byte-identical to the primary. Reads go straight to the stores
// (an assertion, not modeled traffic).
func (m *Manager) Audit() error {
	want := m.replicas
	if n := len(m.cl.Storage); want > n {
		want = n
	}
	for _, d := range m.cl.Catalog.ChunksSince(0) {
		nodes, err := m.cl.Catalog.ChunkNodes(d.Table, d.Chunk)
		if err != nil {
			return err
		}
		if len(nodes) < want {
			return fmt.Errorf("repair: audit: chunk %v has %d placements, want %d", d.ID(), len(nodes), want)
		}
		var primary []byte
		for _, n := range nodes {
			obj, off, ok := m.cl.Catalog.LocateOn(d.Table, d.Chunk, n)
			if !ok {
				return fmt.Errorf("repair: audit: chunk %v placement on node %d not locatable", d.ID(), n)
			}
			store := m.cl.Storage[n].Disk.Store()
			if size, err := store.Size(obj); err != nil || size < off+d.Size {
				return fmt.Errorf("repair: audit: chunk %v on node %d: %q short (%d < %d): %v",
					d.ID(), n, obj, size, off+d.Size, err)
			}
			data, err := store.ReadRange(obj, off, d.Size, nil)
			if err != nil {
				return fmt.Errorf("repair: audit: chunk %v on node %d: %w", d.ID(), n, err)
			}
			if primary == nil {
				primary = data // first listed node is the primary
				continue
			}
			if !bytes.Equal(primary, data) {
				return fmt.Errorf("repair: audit: chunk %v on node %d diverges from primary", d.ID(), n)
			}
		}
	}
	return nil
}
