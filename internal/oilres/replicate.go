package oilres

import (
	"errors"
	"fmt"

	"sciview/internal/chunk"
	"sciview/internal/metadata"
	"sciview/internal/simio"
)

// Replicate raises every chunk of the catalog to `copies` total placements
// (primary included), writing the extra copies round-robin to the nodes
// after the primary and registering them with the catalog. Replica bytes
// live under "rep/<primary object>" on each holding node, appended in
// chunk order. copies is clamped to the node count; copies < 2 is a no-op.
//
// Like generation, replication is administrative: bytes go straight to the
// stores, unthrottled — the paper's measured costs begin at query time.
func Replicate(cat *metadata.Catalog, stores []simio.Store, copies int) error {
	for _, def := range cat.Tables() {
		if err := ReplicateDescs(cat, stores, cat.Chunks(def.ID), copies); err != nil {
			return err
		}
	}
	return nil
}

// ReplicateDescs raises just the given chunks to `copies` total placements,
// using the same round-robin placement and "rep/<object>" layout as
// Replicate. The append-ingest path uses it to replicate only a batch's new
// chunks instead of re-walking the whole catalog.
func ReplicateDescs(cat *metadata.Catalog, stores []simio.Store, descs []*chunk.Desc, copies int) error {
	return ReplicateDescsAvoid(cat, stores, descs, copies, nil)
}

// ReplicateDescsAvoid is ReplicateDescs with a placement veto: nodes for
// which avoid returns true receive no new copies (they are down or
// rejoining). A chunk that cannot reach `copies` placements on non-avoided
// nodes is left under-replicated rather than failing the batch — the
// anti-entropy sweep restores the replication factor once nodes return.
// Placement state is read and committed through the catalog lock, and a
// concurrent commit of the same placement (ErrAlreadyPlaced) counts as
// converged, so repair and ingest replication can overlap safely.
func ReplicateDescsAvoid(cat *metadata.Catalog, stores []simio.Store, descs []*chunk.Desc, copies int, avoid func(node int) bool) error {
	n := len(stores)
	if copies > n {
		copies = n
	}
	if copies < 2 {
		return nil
	}
	for _, d := range descs {
		placed, err := cat.ChunkNodes(d.Table, d.Chunk)
		if err != nil {
			return fmt.Errorf("oilres: replicating chunk %v: %w", d.ID(), err)
		}
		have := len(placed)
		if have >= copies {
			continue
		}
		var data []byte // read lazily: only chunks actually copied pay the read
		for offset := 1; offset < n && have < copies; offset++ {
			node := (d.Node + offset) % n
			if avoid != nil && avoid(node) {
				continue
			}
			if _, _, ok := cat.LocateOn(d.Table, d.Chunk, node); ok {
				continue
			}
			if data == nil {
				data, err = stores[d.Node].ReadRange(d.Object, d.Offset, d.Size, nil)
				if err != nil {
					return fmt.Errorf("oilres: replicating chunk %v: %w", d.ID(), err)
				}
			}
			obj := "rep/" + d.Object
			off, err := stores[node].Size(obj)
			if err != nil {
				off = 0 // object not created yet
			}
			if err := stores[node].Append(obj, data); err != nil {
				return fmt.Errorf("oilres: replicating chunk %v to node %d: %w", d.ID(), node, err)
			}
			err = cat.AddReplica(d.Table, d.Chunk, chunk.Replica{Node: node, Object: obj, Offset: off})
			if err != nil && !errors.Is(err, metadata.ErrAlreadyPlaced) {
				return err
			}
			have++
		}
	}
	return nil
}
