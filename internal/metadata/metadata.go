// Package metadata implements the MetaData Service: the catalog of virtual
// tables and their chunks. It resolves the range part of a query to the set
// of matching chunk descriptors using an R-tree over the tables' coordinate
// attributes, and can persist the catalog so other services (BDS, planner)
// recover it without rescanning datasets.
package metadata

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/congraph"
	"sciview/internal/rtree"
	"sciview/internal/tuple"
)

// TableDef describes one virtual table exposed by a BDS.
type TableDef struct {
	ID     int32
	Name   string
	Schema tuple.Schema
}

// Catalog is the MetaData Service state. All methods are safe for
// concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	byName    map[string]*TableDef
	byID      map[int32]*TableDef
	chunks    map[int32][]*chunk.Desc
	trees     map[int32]*rtree.Tree // indexed over coordinate attrs only
	nextTable int32
	// version is the monotonic dataset version. It starts at 1 (the version
	// of everything loaded administratively) and advances by one per
	// committed append batch, so version 0 is free to mean "current" in
	// query pins.
	version int64
	// joins keeps the join graphs statements asked for last (JoinGraph).
	joins *joinMemo
}

// NewCatalog returns an empty catalog at version 1.
func NewCatalog() *Catalog {
	return &Catalog{
		byName:  make(map[string]*TableDef),
		byID:    make(map[int32]*TableDef),
		chunks:  make(map[int32][]*chunk.Desc),
		trees:   make(map[int32]*rtree.Tree),
		version: 1,
		joins:   &joinMemo{},
	}
}

// Version returns the current dataset version: 1 for a freshly loaded
// dataset, +1 per committed append batch. A query that wants
// snapshot-isolated reads records this value at admission and resolves
// every chunk set with Versions.Until pinned to it.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// CreateTable registers a virtual table and returns its definition. The
// schema must contain at least one coordinate attribute, since range
// resolution and join scheduling are driven by coordinates.
func (c *Catalog) CreateTable(name string, schema tuple.Schema) (*TableDef, error) {
	if len(schema.CoordIndexes()) == 0 {
		return nil, fmt.Errorf("metadata: table %q has no coordinate attributes", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byName[name]; ok {
		return nil, fmt.Errorf("metadata: table %q already exists", name)
	}
	def := &TableDef{ID: c.nextTable, Name: name, Schema: schema}
	c.nextTable++
	c.byName[name] = def
	c.byID[def.ID] = def
	c.trees[def.ID] = rtree.New(len(schema.CoordIndexes()), 0)
	return def, nil
}

// Table returns the definition of the named table.
func (c *Catalog) Table(name string) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("metadata: unknown table %q", name)
	}
	return def, nil
}

// TableByID returns the definition of the table with the given id.
func (c *Catalog) TableByID(id int32) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("metadata: unknown table id %d", id)
	}
	return def, nil
}

// Tables returns all table definitions (unordered).
func (c *Catalog) Tables() []*TableDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableDef, 0, len(c.byID))
	for _, def := range c.byID {
		out = append(out, def)
	}
	return out
}

// AddChunk registers a chunk of the given table, assigning its chunk id.
// The descriptor's Bounds must be in table-schema order and cover at least
// the coordinate attributes with finite bounds.
func (c *Catalog) AddChunk(tableID int32, d *chunk.Desc) (tuple.ID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	def, ok := c.byID[tableID]
	if !ok {
		return tuple.ID{}, fmt.Errorf("metadata: unknown table id %d", tableID)
	}
	if d.Bounds.Dims() != def.Schema.NumAttrs() {
		return tuple.ID{}, fmt.Errorf("metadata: chunk bounds have %d dims, schema has %d attrs",
			d.Bounds.Dims(), def.Schema.NumAttrs())
	}
	d.Table = tableID
	d.Chunk = int32(len(c.chunks[tableID]))
	d.Version = c.version
	c.chunks[tableID] = append(c.chunks[tableID], d)
	c.trees[tableID].Insert(coordBox(def.Schema, d.Bounds), int64(d.Chunk))
	return d.ID(), nil
}

// AppendVersion atomically registers a batch of new chunks as one new
// catalog version and returns that version. Each descriptor must carry the
// id of an existing table in Table and full-schema Bounds; chunk ids are
// assigned here and the descriptors are stamped with the new version. The
// batch commits as a unit under the catalog lock: a concurrent
// ChunksInRange either sees none of the batch or all of it, and a reader
// pinned to an older version never sees it at all. Chunk placement in the
// R-tree uses the incremental insert path (no index rebuild).
func (c *Catalog) AppendVersion(descs []*chunk.Desc) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range descs {
		def, ok := c.byID[d.Table]
		if !ok {
			return 0, fmt.Errorf("metadata: append to unknown table id %d", d.Table)
		}
		if d.Bounds.Dims() != def.Schema.NumAttrs() {
			return 0, fmt.Errorf("metadata: append chunk bounds have %d dims, table %q has %d attrs",
				d.Bounds.Dims(), def.Name, def.Schema.NumAttrs())
		}
	}
	c.version++
	for _, d := range descs {
		def := c.byID[d.Table]
		d.Chunk = int32(len(c.chunks[d.Table]))
		d.Version = c.version
		c.chunks[d.Table] = append(c.chunks[d.Table], d)
		c.trees[d.Table].Insert(coordBox(def.Schema, d.Bounds), int64(d.Chunk))
	}
	return c.version, nil
}

// ErrAlreadyPlaced reports an AddReplica for a node that already holds a
// copy of the chunk. Idempotent repair retries match it with errors.Is to
// distinguish "already converged" from a real failure.
var ErrAlreadyPlaced = errors.New("metadata: chunk already placed on node")

// AddReplica records an extra placement of chunk (tableID, chunkID). The
// replica's bytes are the caller's responsibility and MUST be durable in
// the node's store before the call — the instant the placement commits,
// fetch routing may read it. The catalog only tracks where copies live so
// fetches can fail over and repair can converge.
func (c *Catalog) AddReplica(tableID, chunkID int32, r chunk.Replica) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.chunks[tableID]
	if chunkID < 0 || int(chunkID) >= len(list) {
		return fmt.Errorf("metadata: no chunk (%d,%d)", tableID, chunkID)
	}
	d := list[chunkID]
	if _, _, ok := d.Locate(r.Node); ok {
		return fmt.Errorf("metadata: chunk (%d,%d) on node %d: %w", tableID, chunkID, r.Node, ErrAlreadyPlaced)
	}
	// Copy-on-write: concurrent readers hold slices returned before this
	// commit; never grow the shared backing array in place.
	reps := make([]chunk.Replica, len(d.Replicas), len(d.Replicas)+1)
	copy(reps, d.Replicas)
	d.Replicas = append(reps, r)
	return nil
}

// RemoveReplica drops the replica placement of chunk (tableID, chunkID) on
// the given node — the repair path's way of retiring a placement whose
// bytes were lost with a node's disk, so routing stops trying it and
// re-replication can lay a fresh copy. The primary placement cannot be
// removed (promote-by-rebuild instead: repair rewrites the primary object
// in place from surviving replicas).
func (c *Catalog) RemoveReplica(tableID, chunkID int32, node int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.chunks[tableID]
	if chunkID < 0 || int(chunkID) >= len(list) {
		return fmt.Errorf("metadata: no chunk (%d,%d)", tableID, chunkID)
	}
	d := list[chunkID]
	if node == d.Node {
		return fmt.Errorf("metadata: chunk (%d,%d): cannot remove primary placement on node %d", tableID, chunkID, node)
	}
	for i, r := range d.Replicas {
		if r.Node == node {
			reps := make([]chunk.Replica, 0, len(d.Replicas)-1)
			reps = append(reps, d.Replicas[:i]...)
			d.Replicas = append(reps, d.Replicas[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("metadata: chunk (%d,%d) has no replica on node %d", tableID, chunkID, node)
}

// ChunkNodes returns every storage node holding a copy of chunk
// (tableID, chunkID), primary first, replicas in registration order — the
// lock-consistent form of Desc.Nodes that fetch routing and repair use
// while AddReplica may be committing concurrently.
func (c *Catalog) ChunkNodes(tableID, chunkID int32) ([]int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	list := c.chunks[tableID]
	if chunkID < 0 || int(chunkID) >= len(list) {
		return nil, fmt.Errorf("metadata: no chunk (%d,%d)", tableID, chunkID)
	}
	return list[chunkID].Nodes(), nil
}

// LocateOn returns the object and offset of the chunk's copy on the given
// node (lock-consistent form of Desc.Locate). ok is false when that node
// holds no copy.
func (c *Catalog) LocateOn(tableID, chunkID int32, node int) (object string, offset int64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	list := c.chunks[tableID]
	if chunkID < 0 || int(chunkID) >= len(list) {
		return "", 0, false
	}
	return list[chunkID].Locate(node)
}

// ChunksSince returns the descriptors of every chunk (all tables) whose
// commit version is strictly greater than since, in (table, chunk) order —
// the version-history diff a returning storage node replays to find the
// append batches it missed. since = 0 returns everything.
func (c *Catalog) ChunksSince(since int64) []*chunk.Desc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ids []int32
	for id := range c.chunks {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var out []*chunk.Desc
	for _, id := range ids {
		for _, d := range c.chunks[id] {
			if d.Version > since {
				out = append(out, d)
			}
		}
	}
	return out
}

// coordBox projects a full-schema bounding box onto the coordinate
// dimensions, clamping infinities so R-tree volume arithmetic stays finite.
func coordBox(schema tuple.Schema, full bbox.Box) bbox.Box {
	const clamp = 1e12
	ci := schema.CoordIndexes()
	lo := make([]float64, len(ci))
	hi := make([]float64, len(ci))
	for i, idx := range ci {
		lo[i] = math.Max(full.Lo[idx], -clamp)
		hi[i] = math.Min(full.Hi[idx], clamp)
	}
	return bbox.New(lo, hi)
}

// Chunk returns the descriptor of chunk (tableID, chunkID).
func (c *Catalog) Chunk(tableID, chunkID int32) (*chunk.Desc, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	list := c.chunks[tableID]
	if chunkID < 0 || int(chunkID) >= len(list) {
		return nil, fmt.Errorf("metadata: no chunk (%d,%d)", tableID, chunkID)
	}
	return list[chunkID], nil
}

// Chunks returns all chunk descriptors of a table, in chunk-id order.
// The returned slice must not be modified.
func (c *Catalog) Chunks(tableID int32) []*chunk.Desc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chunks[tableID]
}

// VersionWindow restricts chunk resolution to a half-open interval of
// catalog versions: a chunk is visible iff Since < chunk.Version <= Until.
// The zero window (0, 0) is unconstrained — Until == 0 means "current"
// (no upper bound) and Since == 0 admits the initially loaded chunks
// (which carry version >= 1). Snapshot-isolated reads set Until to the
// version pinned at admission; delta-join maintenance sets Since to the
// previously refreshed version to resolve only the new chunks.
type VersionWindow struct {
	Since int64
	Until int64
}

// Admits reports whether a chunk at version v is visible in the window.
func (w VersionWindow) Admits(v int64) bool {
	return v > w.Since && (w.Until == 0 || v <= w.Until)
}

// Range is a conjunction of per-attribute interval constraints, the
// "WHERE x in [0,256], y in [0,512]" part of the paper's queries, plus an
// optional catalog-version window for snapshot-isolated and delta reads.
type Range struct {
	Attrs []string
	Lo    []float64
	Hi    []float64
	// Versions restricts resolution to chunks whose commit version lies in
	// the window. It does not participate in fetch signatures: chunk bytes
	// are immutable and chunk ids are never reused, so a cached sub-table
	// is valid at every version that can see its chunk.
	Versions VersionWindow
}

// Empty reports whether the range imposes no row constraints. A version
// window alone does not make a range non-empty: versions select chunks,
// never rows.
func (r Range) Empty() bool { return len(r.Attrs) == 0 }

// Restrict returns the per-side filter of a join: the constraints of r
// that name attributes of schema (constraints on the other table's
// attributes do not apply to this side), over version window w.
func (r Range) Restrict(schema tuple.Schema, w VersionWindow) Range {
	out := Range{Versions: w}
	for i, a := range r.Attrs {
		if schema.Index(a) < 0 {
			continue
		}
		out.Attrs = append(out.Attrs, a)
		out.Lo = append(out.Lo, r.Lo[i])
		out.Hi = append(out.Hi, r.Hi[i])
	}
	return out
}

// Validate checks arity and interval ordering.
func (r Range) Validate() error {
	if len(r.Attrs) != len(r.Lo) || len(r.Lo) != len(r.Hi) {
		return fmt.Errorf("metadata: range arity mismatch (%d attrs, %d lo, %d hi)",
			len(r.Attrs), len(r.Lo), len(r.Hi))
	}
	for i := range r.Attrs {
		if r.Lo[i] > r.Hi[i] {
			return fmt.Errorf("metadata: empty interval for %q: [%g,%g]", r.Attrs[i], r.Lo[i], r.Hi[i])
		}
	}
	return nil
}

// ChunksInRange returns the descriptors of all chunks of the named table
// whose bounding boxes intersect the given range — the paper's
// range-to-sub-table-id resolution. Coordinate constraints are answered by
// the R-tree; constraints on other attributes are applied by checking each
// candidate's full bounding box.
func (c *Catalog) ChunksInRange(table string, r Range) ([]*chunk.Desc, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	def, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	ci := def.Schema.CoordIndexes()
	query := bbox.Universe(len(ci))
	// scalar constraints: (schema attr index, lo, hi)
	type scalarCon struct {
		idx    int
		lo, hi float64
	}
	var scalars []scalarCon
	for i, name := range r.Attrs {
		idx := def.Schema.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("metadata: table %q has no attribute %q", table, name)
		}
		coordDim := -1
		for d, cidx := range ci {
			if cidx == idx {
				coordDim = d
				break
			}
		}
		if coordDim >= 0 {
			query.Lo[coordDim] = math.Max(query.Lo[coordDim], r.Lo[i])
			query.Hi[coordDim] = math.Min(query.Hi[coordDim], r.Hi[i])
		} else {
			scalars = append(scalars, scalarCon{idx: idx, lo: r.Lo[i], hi: r.Hi[i]})
		}
	}
	// Clamp infinities for the R-tree query box (same clamp as coordBox).
	const clamp = 1e12
	for d := range query.Lo {
		query.Lo[d] = math.Max(query.Lo[d], -clamp)
		query.Hi[d] = math.Min(query.Hi[d], clamp)
	}

	ids := c.trees[def.ID].Search(query, nil)
	out := make([]*chunk.Desc, 0, len(ids))
candidates:
	for _, id := range ids {
		d := c.chunks[def.ID][id]
		if !r.Versions.Admits(d.Version) {
			continue
		}
		for _, s := range scalars {
			if d.Bounds.Lo[s.idx] > s.hi || d.Bounds.Hi[s.idx] < s.lo {
				continue candidates
			}
		}
		out = append(out, d)
	}
	// Deterministic order for scheduling.
	sortDescs(out)
	return out, nil
}

func sortDescs(ds []*chunk.Desc) {
	slices.SortFunc(ds, func(a, b *chunk.Desc) int { return cmp.Compare(a.Chunk, b.Chunk) })
}

// JoinGraph answers the paper's page-level join index for a join of two
// chunk sets on joinAttrs, left and right as ChunksInRange resolved them:
// the graph congraph.Build(left, right, joinAttrs) builds. The catalog
// keeps the graphs of the last joinMemoSize chunk-set pairs it answered,
// with the schedules IJ derives from them, so a repeated statement reads
// its graph instead of building it; Load drops them. The graph is shared
// with every statement over the same chunk sets and must not be modified.
func (c *Catalog) JoinGraph(joinAttrs []string, left, right []*chunk.Desc) (*congraph.Graph, error) {
	c.mu.RLock()
	m := c.joins
	c.mu.RUnlock()
	return m.graph(joinAttrs, left, right)
}

// joinMemoSize bounds the join graphs a catalog keeps. Replayed over the
// chunk-set pairs each bench workload asked its catalogs for in a seed-1
// window, an LRU of four already missed only on each pair's first
// statement.
const joinMemoSize = 8

// joinMemo holds the join graphs of the last joinMemoSize distinct
// (join attributes, left chunks, right chunks), replacing the least
// recently used.
type joinMemo struct {
	mu      sync.Mutex
	tick    uint64
	entries [joinMemoSize]joinEntry
}

type joinEntry struct {
	attrs []string
	g     *congraph.Graph
	used  uint64
}

// graph returns the memoized graph of exactly these chunk sets, in this
// order, or builds and keeps it. A catalog hands out one descriptor per
// chunk, and Load replaces them all, so comparing descriptor pointers
// compares chunks. Concurrent statements that miss on the same sets wait
// for one build.
func (m *joinMemo) graph(joinAttrs []string, left, right []*chunk.Desc) (*congraph.Graph, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	lru := &m.entries[0]
	for i := range m.entries {
		e := &m.entries[i]
		if e.g != nil && slices.Equal(e.g.Left, left) && slices.Equal(e.g.Right, right) && slices.Equal(e.attrs, joinAttrs) {
			e.used = m.tick
			return e.g, nil
		}
		if e.used < lru.used {
			lru = e
		}
	}
	// Build keeps the sets it is given; the memo's must not change
	// under it.
	g, err := congraph.Build(slices.Clone(left), slices.Clone(right), joinAttrs)
	if err != nil {
		return nil, err
	}
	*lru = joinEntry{attrs: slices.Clone(joinAttrs), g: g, used: m.tick}
	return g, nil
}

// snapshot is the gob-serializable catalog image.
type snapshot struct {
	Tables    []TableDef
	Chunks    map[int32][]*chunk.Desc
	NextTable int32
	Version   int64
}

// Save writes the catalog to w (gob encoding).
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := snapshot{Chunks: c.chunks, NextTable: c.nextTable, Version: c.version}
	for _, def := range c.byID {
		snap.Tables = append(snap.Tables, *def)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load replaces the catalog contents with a previously saved image,
// rebuilding the R-trees and dropping the kept join graphs, whose chunks
// it replaces.
func (c *Catalog) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("metadata: decoding catalog: %w", err)
	}
	// Images saved before catalogs were versioned carry Version 0 and
	// descriptors stamped 0: normalize both to version 1 so visibility
	// arithmetic (Since < v <= Until) treats them as initially loaded.
	version := snap.Version
	if version < 1 {
		version = 1
	}
	// Corruption guard (before installing anything, so a rejected image
	// leaves the catalog untouched): a chunk claiming a commit version
	// beyond the snapshot's committed version describes an append the
	// snapshot never saw. Silently raising the catalog version to cover it
	// would launder a torn or tampered image into a "newer" dataset.
	for _, descs := range snap.Chunks {
		for _, d := range descs {
			if d.Version < 1 {
				d.Version = 1
			}
			if d.Version > version {
				return fmt.Errorf("metadata: corrupt catalog image: chunk (%d,%d) at version %d exceeds committed version %d",
					d.Table, d.Chunk, d.Version, version)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byName = make(map[string]*TableDef, len(snap.Tables))
	c.byID = make(map[int32]*TableDef, len(snap.Tables))
	c.chunks = snap.Chunks
	if c.chunks == nil {
		c.chunks = make(map[int32][]*chunk.Desc)
	}
	c.trees = make(map[int32]*rtree.Tree, len(snap.Tables))
	c.joins = &joinMemo{}
	c.nextTable = snap.NextTable
	c.version = version
	for i := range snap.Tables {
		def := snap.Tables[i]
		c.byName[def.Name] = &def
		c.byID[def.ID] = &def
		// Rebuild the spatial index with STR bulk loading: O(n log n) and
		// near-full node occupancy, versus repeated splits on re-insertion.
		descs := c.chunks[def.ID]
		boxes := make([]bbox.Box, len(descs))
		ids := make([]int64, len(descs))
		for k, d := range descs {
			boxes[k] = coordBox(def.Schema, d.Bounds)
			ids[k] = int64(d.Chunk)
		}
		c.trees[def.ID] = rtree.BulkLoad(len(def.Schema.CoordIndexes()), 0, boxes, ids)
	}
	return nil
}
