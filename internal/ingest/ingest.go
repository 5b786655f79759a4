package ingest

import (
	"fmt"
	"sync"

	"sciview/internal/chunk"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/simio"
)

// Config assembles an Ingestor.
type Config struct {
	// Catalog is the MetaData Service the appended chunks register with.
	Catalog *metadata.Catalog
	// Stores are the storage nodes' object stores, indexed by node.
	Stores []simio.Store
	// Replicas is the total number of placements per appended chunk
	// (primary included), clamped to the node count; < 2 disables
	// replication. Matches oilres.Config.Replicas.
	Replicas int
	// Metrics, when set, registers the ingest counters
	// (sciview_ingest_appends_total, sciview_ingest_chunks_total) and the
	// sciview_ingest_version gauge. Nil keeps the hot path on no-ops.
	Metrics *metrics.Registry
	// Avoid, when set, vetoes placement nodes: a batch chunk whose
	// requested primary node is vetoed (down or rejoining) is redirected to
	// the next non-vetoed node, and replication skips vetoed nodes. The
	// batch then commits under-replicated and the repair tier's catch-up /
	// anti-entropy passes restore the replication factor when nodes return.
	// An append fails only if every node is vetoed.
	Avoid func(node int) bool
}

// Ingestor is the chunk-append path of a living dataset. Append is safe
// for concurrent use with any number of running queries: bytes land in the
// object stores before the catalog commit makes them visible, the commit
// itself is atomic, and snapshot-pinned readers never observe a batch
// committed after their pin.
type Ingestor struct {
	cfg Config

	mu sync.Mutex // serializes appends (offset accounting per object)

	appends *metrics.Counter
	chunks  *metrics.Counter
}

// New builds an Ingestor over a dataset's catalog and stores.
func New(cfg Config) (*Ingestor, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("ingest: nil catalog")
	}
	if len(cfg.Stores) == 0 {
		return nil, fmt.Errorf("ingest: no stores")
	}
	in := &Ingestor{cfg: cfg}
	reg := cfg.Metrics // nil-safe: nil registry hands out no-op instruments
	in.appends = reg.Counter("sciview_ingest_appends_total", "Committed append batches.")
	in.chunks = reg.Counter("sciview_ingest_chunks_total", "Chunks registered by append batches.")
	reg.GaugeFunc("sciview_ingest_version", "Current catalog version.", func() float64 {
		return float64(cfg.Catalog.Version())
	})
	return in, nil
}

// object returns the append-path object name for a table on a node. Append
// bytes live apart from the generator's objects so offset accounting never
// interleaves with administrative loads.
func object(table string, node int) string {
	return fmt.Sprintf("append/%s/node%d.dat", table, node)
}

// Append writes one batch: chunk bytes to their storage nodes, then one
// atomic catalog commit (the new dataset version), then replication of the
// new chunks. It returns the committed version.
//
// Ordering is the isolation argument: bytes are durable in the stores
// before the commit, so the instant a reader can resolve a new chunk it
// can also fetch it; and a reader pinned to an older version resolves a
// chunk set in which the batch does not exist.
func (in *Ingestor) Append(b *Batch) (int64, error) {
	if len(b.Chunks) == 0 {
		return 0, fmt.Errorf("ingest: empty batch %d", b.Step)
	}
	in.mu.Lock()
	defer in.mu.Unlock()

	descs := make([]*chunk.Desc, len(b.Chunks))
	for i, c := range b.Chunks {
		def, err := in.cfg.Catalog.Table(c.Table)
		if err != nil {
			return 0, err
		}
		if _, err := chunk.Lookup(c.Format); err != nil {
			return 0, err
		}
		if c.Node < 0 || c.Node >= len(in.cfg.Stores) {
			return 0, fmt.Errorf("ingest: batch %d chunk %d: no storage node %d", b.Step, i, c.Node)
		}
		node, err := in.placement(c.Node)
		if err != nil {
			return 0, fmt.Errorf("ingest: batch %d chunk %d: %w", b.Step, i, err)
		}
		obj := object(c.Table, node)
		off, err := in.cfg.Stores[node].Size(obj)
		if err != nil {
			off = 0 // object not created yet
		}
		if err := in.cfg.Stores[node].Append(obj, c.Data); err != nil {
			return 0, fmt.Errorf("ingest: batch %d chunk %d: %w", b.Step, i, err)
		}
		descs[i] = &chunk.Desc{
			Table:  def.ID,
			Object: obj,
			Offset: off,
			Size:   int64(len(c.Data)),
			Node:   node,
			Format: c.Format,
			Attrs:  def.Schema.Attrs,
			Rows:   c.Rows,
			Bounds: c.Bounds,
		}
	}

	version, err := in.cfg.Catalog.AppendVersion(descs)
	if err != nil {
		return 0, err
	}
	in.appends.Inc()
	in.chunks.Add(int64(len(descs)))

	// Replication is post-commit: replicas are failover copies, and the
	// primary placement is already fetchable. Down nodes get no copies —
	// anti-entropy lays them later.
	return version, oilres.ReplicateDescsAvoid(in.cfg.Catalog, in.cfg.Stores, descs, in.cfg.Replicas, in.cfg.Avoid)
}

// placement resolves a batch chunk's requested primary node against the
// Avoid veto, scanning forward to the next permitted node.
func (in *Ingestor) placement(want int) (int, error) {
	if in.cfg.Avoid == nil || !in.cfg.Avoid(want) {
		return want, nil
	}
	n := len(in.cfg.Stores)
	for offset := 1; offset < n; offset++ {
		node := (want + offset) % n
		if !in.cfg.Avoid(node) {
			return node, nil
		}
	}
	return 0, fmt.Errorf("ingest: every storage node is down or rejoining")
}
