package scratch

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"sciview/internal/tuple"
)

// Hash partitioning to scratch: the one writer behind Grace Hash's spill
// buckets and the spilling GROUP BY's partitions. Rows are routed a column
// at a time (SubTable.Keys → tuple.Mix(key, salt) mod n → AppendGather) into
// one buffer per (partition, tag), and a buffer is written as one block as
// soon as it holds BlockBytes of rows. Block boundaries are therefore a
// function of each tag's own row stream, never of how concurrent writers
// interleave.
//
// A partition file is a sequence of blocks
//
//	[tag u32][nrows u32][EncodeRows body: nrows × record size bytes]
//
// little-endian, and reading it back yields every tag's rows in arrival
// order: Table reads a partition whole and groups its blocks by ascending
// tag, Read streams them in write order. A caller that tags rows by a
// deterministic source (Grace Hash: the scanning storage slot) so gets a
// partition whose contents are a function of its inputs; one that adds
// under a single tag (GROUP BY) reads its rows back in the order it added
// them.

const (
	// BlockBytes is the size at which a (partition, tag) buffer is written:
	// a block holds the fewest rows reaching it.
	BlockBytes = 16 << 10
	// BlockHeader is the size of a block's [tag][nrows] header.
	BlockHeader = 8
)

// Partitioner hash-partitions rows into n scratch files. Add may be called
// concurrently for different tags; everything else is called by one
// goroutine once the adds it depends on have returned.
type Partitioner struct {
	mgr       *Manager
	label     string
	schema    tuple.Schema
	keyIdxs   []int
	salt      uint64
	blockRows int
	parts     []partition

	mu   sync.Mutex
	tags map[uint32]*tagBufs
}

// partition is one scratch file and what has been written to it.
type partition struct {
	mu   sync.Mutex
	f    *File
	rows int64
}

// tagBufs is one tag's pending rows per partition, and Add's routing
// scratch (one tag is never added to concurrently).
type tagBufs struct {
	bufs []*tuple.SubTable
	keys []uint64
	idx  [][]int32
}

// NewPartitioner returns a partitioner writing n partitions of schema rows
// through mgr, routed by the key columns keyIdxs under salt. Partition k's
// file is created on its first block, labelled label and k.
func NewPartitioner(mgr *Manager, label string, schema tuple.Schema, keyIdxs []int, n int, salt uint64) *Partitioner {
	return &Partitioner{
		mgr: mgr, label: label, schema: schema, keyIdxs: keyIdxs, salt: salt,
		blockRows: (BlockBytes + schema.RecordSize() - 1) / schema.RecordSize(),
		parts:     make([]partition, n),
		tags:      make(map[uint32]*tagBufs),
	}
}

// Rows returns the rows written to partition k so far.
func (p *Partitioner) Rows(k int) int64 { return p.parts[k].rows }

func (p *Partitioner) tag(tag uint32) *tagBufs {
	p.mu.Lock()
	defer p.mu.Unlock()
	tb := p.tags[tag]
	if tb == nil {
		tb = &tagBufs{bufs: make([]*tuple.SubTable, len(p.parts)), idx: make([][]int32, len(p.parts))}
		p.tags[tag] = tb
	}
	return tb
}

// Add routes batch's rows under tag, writing every buffer that fills.
func (p *Partitioner) Add(tag uint32, batch *tuple.SubTable) error {
	tb := p.tag(tag)
	tb.keys = batch.Keys(tb.keys, p.keyIdxs)
	for k := range tb.idx {
		tb.idx[k] = tb.idx[k][:0]
	}
	n := uint64(len(p.parts))
	for r, key := range tb.keys {
		k := tuple.Mix(key, p.salt) % n
		tb.idx[k] = append(tb.idx[k], int32(r))
	}
	for k, idx := range tb.idx {
		for len(idx) > 0 {
			if tb.bufs[k] == nil {
				tb.bufs[k] = tuple.NewSubTable(tuple.ID{Table: -1, Chunk: int32(k)}, p.schema, p.blockRows)
			}
			buf := tb.bufs[k]
			m := min(len(idx), p.blockRows-buf.NumRows())
			buf.AppendGather(batch, idx[:m])
			idx = idx[m:]
			if buf.NumRows() == p.blockRows {
				if err := p.write(k, tag, buf); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// seal writes tag's partly filled buffers and forgets the tag.
func (p *Partitioner) seal(tag uint32) error {
	p.mu.Lock()
	tb := p.tags[tag]
	delete(p.tags, tag)
	p.mu.Unlock()
	if tb == nil {
		return nil
	}
	for k, buf := range tb.bufs {
		if buf != nil && buf.NumRows() > 0 {
			if err := p.write(k, tag, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush seals every tag, in ascending tag order.
func (p *Partitioner) Flush() error {
	p.mu.Lock()
	tags := make([]uint32, 0, len(p.tags))
	for tag := range p.tags {
		tags = append(tags, tag)
	}
	p.mu.Unlock()
	slices.Sort(tags)
	for _, tag := range tags {
		if err := p.seal(tag); err != nil {
			return err
		}
	}
	return nil
}

// write appends buf to partition k as one block under tag and empties it.
func (p *Partitioner) write(k int, tag uint32, buf *tuple.SubTable) error {
	data := tuple.GetBuf(BlockHeader + buf.Bytes())
	data = binary.LittleEndian.AppendUint32(data, tag)
	data = binary.LittleEndian.AppendUint32(data, uint32(buf.NumRows()))
	data = appendRows(data, buf)
	pt := &p.parts[k]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.f == nil {
		pt.f = p.mgr.Create(fmt.Sprintf("%s%d", p.label, k))
	}
	err := pt.f.AppendRows(data, int64(buf.NumRows()))
	tuple.PutBuf(data) // the store copied; recycle the encode buffer
	if err != nil {
		return err
	}
	pt.rows += int64(buf.NumRows())
	buf.Reset()
	return nil
}

// Table reads partition k back whole, in one size-verified read, as one
// table: its rows grouped by ascending tag and, within a tag, in the order
// they were written. Every block's framing is checked, so a short or
// broken file fails here.
func (p *Partitioner) Table(k int) (*tuple.SubTable, error) {
	id := tuple.ID{Table: -1, Chunk: int32(k)}
	f := p.parts[k].f
	if f == nil {
		return tuple.NewSubTable(id, p.schema, 0), nil
	}
	data, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	defer tuple.PutBuf(data)
	blocks, err := splitBlocks(data, p.schema.RecordSize())
	if err != nil {
		return nil, fmt.Errorf("scratch: %s: %w", f.name, err)
	}
	slices.SortStableFunc(blocks, func(a, b block) int { return cmp.Compare(a.tag, b.tag) })
	bodies := make([][]byte, len(blocks))
	for i, b := range blocks {
		bodies[i] = b.body
	}
	return decodeRows(p.schema, id, bodies...)
}

// Read streams partition k block by block in write order, calling fn with
// each block's rows: every tag's rows arrive in the order they were added,
// the tags interleaved as their blocks were written. The file is fetched
// chunk bytes at a time (File.Open), so the read buffers at most that
// much. Reads are size-verified and framing-checked as Table's.
func (p *Partitioner) Read(k int, chunk int64, fn func(st *tuple.SubTable) error) error {
	pt := &p.parts[k]
	if pt.f == nil {
		return nil
	}
	rd, err := pt.f.Open(chunk)
	if err != nil {
		return err
	}
	defer rd.Close()
	for {
		_, st, err := rd.block(p.schema)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(st); err != nil {
			return err
		}
	}
}

// Release deletes partition k's file.
func (p *Partitioner) Release(k int) {
	p.mgr.Release(p.parts[k].f)
	p.parts[k].f = nil
}

// block is one block of a partition file: its tag and its rows'
// EncodeRows body.
type block struct {
	tag  uint32
	body []byte
}

// parseHeader parses a block header followed by remain more bytes in the
// file, and checks the block's body fits in them.
func parseHeader(hdr []byte, rec int, remain int64) (tag uint32, size int64, err error) {
	tag = binary.LittleEndian.Uint32(hdr[0:])
	rows := int64(binary.LittleEndian.Uint32(hdr[4:]))
	if size = rows * int64(rec); size > remain {
		return 0, 0, fmt.Errorf("block of %d rows needs %d bytes, %d remain", rows, size, remain)
	}
	return tag, size, nil
}

// splitBlocks splits a whole partition file into its blocks.
func splitBlocks(data []byte, rec int) ([]block, error) {
	var blocks []block
	for len(data) > 0 {
		if len(data) < BlockHeader {
			return nil, fmt.Errorf("block header: %d bytes of %d", len(data), BlockHeader)
		}
		tag, size, err := parseHeader(data, rec, int64(len(data)-BlockHeader))
		if err != nil {
			return nil, err
		}
		data = data[BlockHeader:]
		blocks = append(blocks, block{tag, data[:size]})
		data = data[size:]
	}
	return blocks, nil
}

// block reads the next block and decodes its rows under schema; io.EOF at
// a clean end of file.
func (r *Reader) block(schema tuple.Schema) (uint32, *tuple.SubTable, error) {
	var hdr [BlockHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("scratch: %s: block header: %w", r.f.name, err)
	}
	tag, size, err := parseHeader(hdr[:], schema.RecordSize(), r.Remaining())
	if err != nil {
		return 0, nil, fmt.Errorf("scratch: %s: %w", r.f.name, err)
	}
	buf := tuple.GetBuf(int(size))[:size]
	defer tuple.PutBuf(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("scratch: %s: block body: %w", r.f.name, err)
	}
	st, err := decodeRows(schema, tuple.ID{Table: -1, Chunk: -1}, buf)
	return tag, st, err
}
