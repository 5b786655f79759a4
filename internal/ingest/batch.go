// Package ingest makes datasets append-only-mutable while queries keep
// running: it is the write path of a living dataset. A producer hands the
// Ingestor batches of encoded chunks; each batch commits atomically as one
// new catalog version (the monotonic dataset version), placed in the
// R-tree through the incremental insert path and replicated with the same
// machinery the generator uses. Readers are snapshot-isolated — a query
// pins the catalog version it admitted under, and an append committing
// mid-query is entirely invisible to it — so ingest never perturbs an
// in-flight result.
//
// On top of the write path sits delta-join incremental maintenance for
// materialized equi-join views (MaterializedView), which folds in
// new-left×old-right, old-left×new-right and new-left×new-right instead of
// recomputing — byte-identical to a recompute from scratch. A view's
// staleness is one catalog query over the versions committed since it was
// last refreshed.
package ingest

import (
	"encoding/gob"
	"fmt"
	"io"

	"sciview/internal/bbox"
	"sciview/internal/oilres"
)

// BatchChunk is one chunk payload of an append batch: encoded bytes plus
// the metadata the catalog needs to register them. Bounds must cover the
// destination table's full schema, in schema order (the generator's
// SubTable.Bounds() does this).
type BatchChunk struct {
	// Table names the destination virtual table.
	Table string
	// Format names the extractor that parses Data.
	Format string
	// Data is the encoded chunk.
	Data []byte
	// Rows is the record count of the chunk.
	Rows int
	// Bounds is the chunk's bounding box over the table's schema.
	Bounds bbox.Box
	// Node is the storage node the chunk is placed on (primary copy).
	Node int
}

// Batch is one append unit: all chunks of one arrival (e.g. a simulation
// time step). A batch commits as a whole — one new catalog version.
type Batch struct {
	// Step is a producer-assigned sequence number (informational).
	Step int
	// Chunks are the batch's payloads.
	Chunks []BatchChunk
}

// FromStepChunks wraps generator output as an append batch.
func FromStepChunks(step int, chunks []oilres.StepChunk) *Batch {
	b := &Batch{Step: step, Chunks: make([]BatchChunk, len(chunks))}
	for i, c := range chunks {
		b.Chunks[i] = BatchChunk{
			Table: c.Table, Format: c.Format, Data: c.Data,
			Rows: c.Rows, Bounds: c.Bounds, Node: c.Node,
		}
	}
	return b
}

// Encode writes the batch to w (gob), the on-disk format of
// `sciview-gen -timesteps` batch files.
func (b *Batch) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(b); err != nil {
		return fmt.Errorf("ingest: encoding batch %d: %w", b.Step, err)
	}
	return nil
}

// DecodeBatch reads one batch previously written by Encode.
func DecodeBatch(r io.Reader) (*Batch, error) {
	var b Batch
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("ingest: decoding batch: %w", err)
	}
	return &b, nil
}
