// Package bds implements the Basic Data Source Service: the storage-node
// service that provides a virtual-table view over application-specific data
// chunks. Upon receipt of a chunk id, a BDS instance reads the chunk from
// its local disk, runs the registered extractor for the chunk's format, and
// returns the resulting basic sub-table, optionally with a range filter
// pushed down to prune records early.
package bds

import (
	"fmt"
	"sync/atomic"

	"sciview/internal/chunk"
	"sciview/internal/colenc"
	"sciview/internal/metadata"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// Stats counts BDS activity.
type Stats struct {
	SubTablesServed atomic.Int64
	RecordsServed   atomic.Int64
}

// Service is one BDS instance, bound to a storage node's disk. It serves
// only chunks whose descriptors place them on its node.
type Service struct {
	node    int
	catalog *metadata.Catalog
	disk    *simio.Disk
	Stats   Stats
}

// New returns the BDS instance of storage node `node`.
func New(node int, catalog *metadata.Catalog, disk *simio.Disk) *Service {
	return &Service{node: node, catalog: catalog, disk: disk}
}

// Node returns the storage node this instance runs on.
func (s *Service) Node() int { return s.node }

// Disk exposes the node's disk (for harness accounting).
func (s *Service) Disk() *simio.Disk { return s.disk }

// SubTable produces the basic sub-table (id.Table, id.Chunk): it reads the
// chunk's file segment through the node's disk (paying the modeled read
// bandwidth), extracts it, and applies the optional range filter. Only
// constraints on attributes present in the chunk's schema are applied; an
// absent attribute has bounds [-Inf, +Inf] per the paper and filters
// nothing.
func (s *Service) SubTable(id tuple.ID, filter *metadata.Range) (*tuple.SubTable, error) {
	return s.SubTableProjected(id, filter, nil)
}

// SubTableProjected is SubTable with projection pushdown: when project is
// non-nil, only the named attributes (those present in the chunk's schema,
// kept in schema order) are returned, shrinking the record size shipped to
// compute nodes. The filter is applied before projection, so predicates on
// unprojected attributes still take effect.
func (s *Service) SubTableProjected(id tuple.ID, filter *metadata.Range, project []string) (*tuple.SubTable, error) {
	desc, err := s.catalog.Chunk(id.Table, id.Chunk)
	if err != nil {
		return nil, fmt.Errorf("bds: node %d: %w", s.node, err)
	}
	data, err := s.read(desc)
	if err != nil {
		return nil, err
	}
	st, err := chunk.Extract(desc, data)
	if err != nil {
		return nil, fmt.Errorf("bds: node %d: %w", s.node, err)
	}
	st, err = applyFilter(st, filter)
	if err != nil {
		return nil, fmt.Errorf("bds: node %d chunk %v: %w", s.node, id, err)
	}
	if project != nil {
		keep := projectionFor(st.Schema, project)
		st, err = st.Project(keep)
		if err != nil {
			return nil, fmt.Errorf("bds: node %d chunk %v: %w", s.node, id, err)
		}
	}
	s.Stats.SubTablesServed.Add(1)
	s.Stats.RecordsServed.Add(int64(st.NumRows()))
	return st, nil
}

// SubTableEncoded is SubTableProjected producing the compressed columnar
// wire representation instead of a decoded sub-table: the chunk's
// extractor yields the rows, the filter and projection shape them, and
// only the surviving rows of the surviving columns are encoded. The frame
// therefore depends on the rows alone, never on the chunk's on-disk
// format, and decodes to the row-major fetch bit for bit.
func (s *Service) SubTableEncoded(id tuple.ID, filter *metadata.Range, project []string) (*colenc.Table, error) {
	st, err := s.SubTableProjected(id, filter, project)
	if err != nil {
		return nil, err
	}
	return colenc.FromSubTable(st), nil
}

// read returns the bytes of the copy of desc's chunk this node holds: the
// primary placement, a replica written during dataset loading, or one the
// repair tier laid down. It reads through the catalog lock — repair
// commits placements concurrently with serving — and pays the disk's
// modeled read bandwidth.
func (s *Service) read(desc *chunk.Desc) ([]byte, error) {
	id := desc.ID()
	object, offset, ok := s.catalog.LocateOn(id.Table, id.Chunk, s.node)
	if !ok {
		return nil, fmt.Errorf("bds: chunk %v has no copy on node %d (primary is node %d)", id, s.node, desc.Node)
	}
	data, err := s.disk.ReadRange(object, offset, desc.Size, nil)
	if err != nil {
		return nil, fmt.Errorf("bds: node %d reading chunk %v: %w", s.node, id, err)
	}
	return data, nil
}

// projectionFor returns the projection list restricted to attributes the
// schema actually has, in schema order (so every chunk of a table projects
// identically).
func projectionFor(schema tuple.Schema, project []string) []string {
	want := make(map[string]bool, len(project))
	for _, p := range project {
		want[p] = true
	}
	var keep []string
	for _, a := range schema.Attrs {
		if want[a.Name] {
			keep = append(keep, a.Name)
		}
	}
	return keep
}

// applyFilter applies the constraints of f that name attributes present in
// st's schema.
func applyFilter(st *tuple.SubTable, f *metadata.Range) (*tuple.SubTable, error) {
	if f == nil || f.Empty() {
		return st, nil
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var names []string
	var lo, hi []float64
	for i, a := range f.Attrs {
		if st.Schema.Index(a) < 0 {
			continue // absent attribute: bounds are infinite, keep all rows
		}
		names = append(names, a)
		lo = append(lo, f.Lo[i])
		hi = append(hi, f.Hi[i])
	}
	if len(names) == 0 {
		return st, nil
	}
	return st.FilterRange(names, lo, hi)
}

// LocalChunks returns the descriptors of this node's chunks of the named
// table that intersect the given range, in chunk-id order. It is the scan
// driver for the Grace Hash storage-side QES.
func (s *Service) LocalChunks(table string, r metadata.Range) ([]*chunk.Desc, error) {
	all, err := s.catalog.ChunksInRange(table, r)
	if err != nil {
		return nil, err
	}
	var mine []*chunk.Desc
	for _, d := range all {
		if d.Node == s.node {
			mine = append(mine, d)
		}
	}
	return mine, nil
}
