// Package scratch is the shared spill-file manager for out-of-core
// operators: external sort runs, Grace Hash buckets, aggregation
// partitions, and hash-join build partitions all go through one Manager
// per (operator, compute node) pair; buckets and aggregation partitions
// are written by its one hash Partitioner. The manager owns naming,
// lifecycle (every file it creates is deleted by Release/ReleaseAll, so a
// plan's Close reaps everything even after faults or early exit),
// telemetry (spill bytes/durations into the engine observation collector
// and trace spans), and — the safety property the fault-injection suite
// leans on — size-verified reads: a file whose store size disagrees with
// the bytes successfully appended fails the read loudly instead of
// silently truncating the query result.
package scratch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/engine"
	"sciview/internal/simio"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Manager pools scratch files on one compute node's spill disk under a
// common name prefix. All methods are safe for concurrent use.
type Manager struct {
	disk   *simio.Disk
	prefix string
	node   string
	rec    *trace.Recorder
	obs    *engine.ObsCollector

	mu    sync.Mutex
	files map[string]*File
	seq   int64

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
	created      atomic.Int64
}

// NewManager returns a manager writing under prefix on disk. node names
// the owner in trace spans; rec and obs may be nil.
func NewManager(disk *simio.Disk, prefix, node string, rec *trace.Recorder, obs *engine.ObsCollector) *Manager {
	return &Manager{
		disk: disk, prefix: prefix, node: node, rec: rec, obs: obs,
		files: make(map[string]*File),
	}
}

// Create opens a fresh scratch file with a unique name derived from
// label. The file exists in the store only once something is appended.
func (m *Manager) Create(label string) *File {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	name := fmt.Sprintf("%s/%d-%s", m.prefix, m.seq, label)
	f := &File{m: m, name: name}
	m.files[name] = f
	m.created.Add(1)
	return f
}

// Release deletes one file from the store and forgets it. Deletion is
// untimed and never consults the fault hook, so cleanup works on a
// "crashed" node.
func (m *Manager) Release(f *File) {
	if f == nil {
		return
	}
	m.mu.Lock()
	delete(m.files, f.name)
	m.mu.Unlock()
	_ = m.disk.Delete(f.name)
}

// ReleaseAll deletes every live file. Idempotent; safe after faults.
func (m *Manager) ReleaseAll() {
	m.mu.Lock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	m.files = make(map[string]*File)
	m.mu.Unlock()
	for _, name := range names {
		_ = m.disk.Delete(name)
	}
}

// RoundTrip spills st to a fresh scratch file and reads it back,
// size-verified — the modeled I/O an out-of-core repartition pays
// (engine.Spiller). The file is released whether or not the trip succeeds.
func (m *Manager) RoundTrip(label string, st *tuple.SubTable) (*tuple.SubTable, error) {
	f := m.Create("ov-" + label)
	defer m.Release(f)
	data := EncodeRows(st)
	err := f.AppendRows(data, int64(st.NumRows()))
	tuple.PutBuf(data)
	if err != nil {
		return nil, err
	}
	back, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	defer tuple.PutBuf(back)
	return DecodeRows(st.Schema, back, st.ID)
}

// Live returns the names of files not yet released (hygiene audits).
func (m *Manager) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	return names
}

// BytesWritten returns the total bytes successfully appended.
func (m *Manager) BytesWritten() int64 { return m.bytesWritten.Load() }

// BytesRead returns the total bytes read back.
func (m *Manager) BytesRead() int64 { return m.bytesRead.Load() }

// Files returns how many scratch files the manager ever created — the
// spill-partition count surfaced through OpStat.SpillParts.
func (m *Manager) Files() int64 { return m.created.Load() }

// File is one scratch file. A File is written by one goroutine at a
// time (concurrent writers to distinct files are fine); its own mutex
// guards the size/broken bookkeeping against concurrent readers.
type File struct {
	m    *Manager
	name string

	mu     sync.Mutex
	size   int64
	broken error
}

// Name is the file's full store name.
func (f *File) Name() string { return f.name }

// Size returns the bytes successfully appended so far.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Append extends the file, billing the spill write. On error the file
// is marked broken: the store may hold a partial record (a short write
// really does persist a prefix), so every subsequent operation fails
// rather than ever serving truncated data.
func (f *File) Append(data []byte) error { return f.AppendRows(data, 0) }

// AppendRows is Append with a row count for the trace span.
func (f *File) AppendRows(data []byte, rows int64) error {
	f.mu.Lock()
	if f.broken != nil {
		err := f.broken
		f.mu.Unlock()
		return fmt.Errorf("scratch: %s is broken by an earlier write error: %w", f.name, err)
	}
	f.mu.Unlock()
	start := time.Now()
	if err := f.m.disk.Append(f.name, data); err != nil {
		f.mu.Lock()
		f.broken = err
		f.mu.Unlock()
		return fmt.Errorf("scratch: append %s: %w", f.name, err)
	}
	f.mu.Lock()
	f.size += int64(len(data))
	f.mu.Unlock()
	f.m.bytesWritten.Add(int64(len(data)))
	f.m.obs.SpillWrite(int64(len(data)), time.Since(start))
	f.m.rec.Span(f.m.node, trace.KindSpill, f.name, start, int64(len(data)), rows)
	return nil
}

// verify checks the file is intact: not broken, and the store holds
// exactly the bytes the successful appends recorded.
func (f *File) verify() (int64, error) {
	f.mu.Lock()
	size, broken := f.size, f.broken
	f.mu.Unlock()
	if broken != nil {
		return 0, fmt.Errorf("scratch: %s is broken by an earlier write error: %w", f.name, broken)
	}
	stored, err := f.m.disk.Size(f.name)
	if err != nil {
		if size == 0 {
			return 0, nil // never written, never stored: empty is intact
		}
		return 0, fmt.Errorf("scratch: stat %s: %w", f.name, err)
	}
	if stored != size {
		return 0, fmt.Errorf("scratch: %s holds %d bytes, expected %d (truncated or partially written)",
			f.name, stored, size)
	}
	return size, nil
}

// ReadAll reads the whole file back, billing the spill read, into a
// pooled buffer (tuple.GetBuf) the caller may release with tuple.PutBuf
// once it is decoded. The read fails if the stored size disagrees with
// the appended size.
func (f *File) ReadAll() ([]byte, error) {
	size, err := f.verify()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, nil
	}
	start := time.Now()
	data, err := f.m.disk.ReadRange(f.name, 0, -1, tuple.GetBuf(int(size)))
	if err != nil {
		return nil, fmt.Errorf("scratch: read %s: %w", f.name, err)
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("scratch: read %s returned %d bytes, expected %d", f.name, len(data), size)
	}
	f.m.bytesRead.Add(size)
	f.m.obs.SpillRead(size, time.Since(start))
	f.m.rec.Span(f.m.node, trace.KindBucketRead, f.name, start, size, 0)
	return data, nil
}

// Open returns a sequential reader over the file that fetches it chunk
// bytes at a time into one buffer, verifying the stored size up front.
// The buffer holds min(chunk, Size()) bytes: a merge over many runs
// bounds its resident read buffers by its choice of chunk.
func (f *File) Open(chunk int64) (*Reader, error) {
	size, err := f.verify()
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, end: size, chunk: chunk}, nil
}

// Reader streams a scratch file in chunk-byte pieces through one reused
// buffer, billing each piece as spill-read traffic. It implements
// io.Reader; use io.ReadFull for record framing.
type Reader struct {
	f     *File
	off   int64
	end   int64
	chunk int64
	buf   []byte
	pos   int
	rec   []byte // ReadRecord's staging for a record split across chunks
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.pos >= len(r.buf) {
		if r.off >= r.end {
			return 0, io.EOF
		}
		n := min(r.end-r.off, r.chunk)
		if r.buf == nil {
			r.buf = tuple.GetBuf(int(n))
		}
		start := time.Now()
		data, err := r.f.m.disk.ReadRange(r.f.name, r.off, n, r.buf[:0])
		if err != nil {
			return 0, fmt.Errorf("scratch: read %s@%d: %w", r.f.name, r.off, err)
		}
		if int64(len(data)) != n {
			return 0, fmt.Errorf("scratch: read %s@%d returned %d bytes, expected %d (truncated)",
				r.f.name, r.off, len(data), n)
		}
		r.f.m.bytesRead.Add(n)
		r.f.m.obs.SpillRead(n, time.Since(start))
		r.f.m.rec.Span(r.f.m.node, trace.KindBucketRead, r.f.name, start, n, 0)
		r.off += n
		r.buf, r.pos = data, 0
	}
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	return n, nil
}

// ReadRecord decodes the next EncodeRows record, len(dst) values, into
// dst: io.EOF at a clean end of file, io.ErrUnexpectedEOF on a partial
// record. A record that lies in the buffered chunk is decoded in place.
func (r *Reader) ReadRecord(dst []float32) error {
	size := 4 * len(dst)
	var rec []byte
	if len(r.buf)-r.pos >= size {
		rec = r.buf[r.pos : r.pos+size]
		r.pos += size
	} else {
		if len(r.rec) < size {
			r.rec = make([]byte, size)
		}
		rec = r.rec[:size]
		if _, err := io.ReadFull(r, rec); err != nil {
			return err
		}
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(rec[4*i:]))
	}
	return nil
}

// Remaining returns the bytes left to stream (buffered + unread).
func (r *Reader) Remaining() int64 {
	return int64(len(r.buf)-r.pos) + (r.end - r.off)
}

// Close returns the reader's buffer to the pool; the reader is spent.
func (r *Reader) Close() {
	tuple.PutBuf(r.buf)
	r.buf, r.pos, r.off = nil, 0, r.end
}

// ---------------------------------------------------------------------
// Row codec

// Spilled rows are raw row-major float32 records: the schema is known to
// both the writing and reading phase, so a body needs no framing, and its
// byte count is rows × record size — the quantity the cost model charges
// for. A Partitioner block adds one 8-byte header per BlockBytes of rows.

// EncodeRows writes st's rows into a pooled buffer (tuple.GetBuf): both
// simio stores copy on Append, so spill callers release the buffer with
// tuple.PutBuf right after the write and steady-state spilling
// allocates nothing.
func EncodeRows(st *tuple.SubTable) []byte {
	return appendRows(tuple.GetBuf(st.Bytes()), st)
}

// appendRows appends st's rows to dst in EncodeRows' layout, a column at a
// time.
func appendRows(dst []byte, st *tuple.SubTable) []byte {
	base, rec := len(dst), st.Schema.RecordSize()
	dst = slices.Grow(dst, st.Bytes())[:base+st.Bytes()]
	for c := range st.Schema.NumAttrs() {
		out := dst[base+c*4:]
		for r, v := range st.Col(c)[:st.NumRows()] {
			binary.LittleEndian.PutUint32(out[r*rec:], math.Float32bits(v))
		}
	}
	return dst
}

// EncodeRowsAt is EncodeRows over st's rows rows[0], rows[1], …, in that
// order: the form an external sort writes a sorted run in.
func EncodeRowsAt(st *tuple.SubTable, rows []int32) []byte {
	rec := st.Schema.RecordSize()
	dst := tuple.GetBuf(len(rows) * rec)[:len(rows)*rec]
	for c := range st.Schema.NumAttrs() {
		out, col := dst[c*4:], st.Col(c)
		for i, r := range rows {
			binary.LittleEndian.PutUint32(out[i*rec:], math.Float32bits(col[r]))
		}
	}
	return dst
}

// DecodeRows reconstructs a sub-table from EncodeRows output. id labels
// the decoded batch.
func DecodeRows(schema tuple.Schema, data []byte, id tuple.ID) (*tuple.SubTable, error) {
	if rec := schema.RecordSize(); rec == 0 || len(data)%rec != 0 {
		return nil, fmt.Errorf("scratch: %d bytes is not a multiple of record size %d", len(data), rec)
	}
	return decodeRows(schema, id, data)
}

// decodeRows decodes the concatenation of bodies, each a whole number of
// records, into one sub-table.
func decodeRows(schema tuple.Schema, id tuple.ID, bodies ...[]byte) (*tuple.SubTable, error) {
	rec, na := schema.RecordSize(), schema.NumAttrs()
	rows := 0
	for _, b := range bodies {
		rows += len(b) / rec
	}
	// One backing array for all columns keeps decode at two allocations.
	backing := make([]float32, na*rows)
	cols := make([][]float32, na)
	for c := range cols {
		cols[c] = backing[c*rows : (c+1)*rows : (c+1)*rows]
	}
	r := 0
	for _, b := range bodies {
		for off := 0; off+rec <= len(b); off += rec {
			for c := range cols {
				cols[c][r] = math.Float32frombits(binary.LittleEndian.Uint32(b[off+c*4:]))
			}
			r++
		}
	}
	return tuple.FromColumns(id, schema, cols)
}
