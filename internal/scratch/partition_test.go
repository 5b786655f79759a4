package scratch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"sciview/internal/simio"
	"sciview/internal/tuple"
)

func partSchema() tuple.Schema {
	return tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
}

// partRows returns rows [from, to) of the test stream: x counts, y spreads
// the keys, v marks the tag that wrote the row.
func partRows(from, to int, tag uint32) *tuple.SubTable {
	st := tuple.NewSubTable(tuple.ID{}, partSchema(), to-from)
	for i := from; i < to; i++ {
		st.AppendRow(float32(i), float32(i*3%101), float32(tag))
	}
	return st
}

// readPartition reads partition k whole with Table, streams it with Read
// too, and requires the stream — each tag's blocks in write order, grouped
// by ascending tag — to agree with Table row for row and tag for tag (the
// test rows carry their tag as v, so every streamed block is one tag's).
func readPartition(t *testing.T, p *Partitioner, k int) *tuple.SubTable {
	t.Helper()
	whole, err := p.Table(k)
	if err != nil {
		t.Fatal(err)
	}
	byTag := map[uint32]*tuple.SubTable{}
	var tags []uint32
	err = p.Read(k, readChunk, func(st *tuple.SubTable) error {
		tag := uint32(st.Value(0, 2))
		for r := range st.NumRows() {
			if uint32(st.Value(r, 2)) != tag {
				t.Fatalf("partition %d: a row written under tag %v streamed in a block of tag %d", k, st.Value(r, 2), tag)
			}
		}
		if byTag[tag] == nil {
			byTag[tag] = tuple.NewSubTable(whole.ID, p.schema, 0)
			tags = append(tags, tag)
		}
		return byTag[tag].AppendAll(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(tags)
	streamed := tuple.NewSubTable(whole.ID, p.schema, 0)
	for _, tag := range tags {
		if err := streamed.AppendAll(byTag[tag]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tuple.Encode(nil, streamed), tuple.Encode(nil, whole)) {
		t.Fatalf("partition %d: Read and Table disagree", k)
	}
	return whole
}

// TestPartitionerRoundTrip: every row comes back exactly once, in the
// partition its salted key hash names, in arrival order; the file holds
// exactly the rows plus one header per block, and a block is the fewest
// rows reaching BlockBytes.
func TestPartitionerRoundTrip(t *testing.T) {
	const n, rows, salt = 4, 20000, 7
	m, _ := testManager()
	schema := partSchema()
	keyIdxs := []int{0, 1}
	p := NewPartitioner(m, "b", schema, keyIdxs, n, salt)
	for from := 0; from < rows; from += 999 {
		if err := p.Add(0, partRows(from, min(from+999, rows), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := int64(schema.RecordSize())
	blockRows := (BlockBytes + rec - 1) / rec
	var total, want int64
	for k := 0; k < n; k++ {
		st := readPartition(t, p, k)
		if int64(st.NumRows()) != p.Rows(k) {
			t.Errorf("partition %d: read %d rows, accounted %d", k, st.NumRows(), p.Rows(k))
		}
		if p.Rows(k) <= blockRows {
			t.Fatalf("partition %d: %d rows fit one block; the test needs several", k, p.Rows(k))
		}
		keys := st.Keys(nil, keyIdxs)
		for r := range st.NumRows() {
			if int(tuple.Mix(keys[r], salt)%n) != k {
				t.Fatalf("row x=%v in wrong partition %d", st.Value(r, 0), k)
			}
			if r > 0 && st.Value(r, 0) <= st.Value(r-1, 0) {
				t.Fatalf("partition %d: row %d (x=%v) out of arrival order", k, r, st.Value(r, 0))
			}
		}
		total += int64(st.NumRows())
		want += p.Rows(k)*rec + BlockHeader*((p.Rows(k)+blockRows-1)/blockRows)
		p.Release(k)
	}
	if total != rows {
		t.Errorf("round trip returned %d rows, want %d", total, rows)
	}
	if m.BytesWritten() != want {
		t.Errorf("wrote %d bytes, want rows plus one header per block = %d", m.BytesWritten(), want)
	}
	if live := m.Live(); len(live) != 0 {
		t.Errorf("released partitions still live: %v", live)
	}
}

// TestPartitionerConcurrentTags: writers adding concurrently under
// distinct tags get back, per partition, their rows grouped by ascending
// tag and in each tag's arrival order — the same bytes, block boundaries
// included, as writing the tags one after another.
func TestPartitionerConcurrentTags(t *testing.T) {
	const n, tags, perTag, batch = 3, 4, 6000, 97
	run := func(concurrent bool) ([][]byte, int64) {
		m, _ := testManager()
		p := NewPartitioner(m, "b", partSchema(), []int{0, 1}, n, 11)
		var wg sync.WaitGroup
		errs := make([]error, tags)
		write := func(tag uint32) {
			defer wg.Done()
			// Tag 3 writes first in the serial run: arrival across tags
			// must not matter.
			base := int(tag) * perTag
			for from := base; from < base+perTag; from += batch {
				if err := p.Add(tag, partRows(from, min(from+batch, base+perTag), tag)); err != nil {
					errs[tag] = err
					return
				}
			}
		}
		for tag := tags - 1; tag >= 0; tag-- {
			wg.Add(1)
			if concurrent {
				go write(uint32(tag))
			} else {
				write(uint32(tag))
			}
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, n)
		for k := range n {
			st := readPartition(t, p, k)
			for r := 1; r < st.NumRows(); r++ {
				tag, prev := st.Value(r, 2), st.Value(r-1, 2)
				if tag < prev {
					t.Fatalf("partition %d row %d: tag %v after tag %v", k, r, tag, prev)
				}
				if tag == prev && st.Value(r, 0) <= st.Value(r-1, 0) {
					t.Fatalf("partition %d row %d: tag %v rows out of arrival order", k, r, tag)
				}
			}
			out[k] = tuple.Encode(nil, st)
		}
		return out, m.BytesWritten()
	}
	want, wantBytes := run(false)
	for i := range 3 {
		got, gotBytes := run(true)
		if gotBytes != wantBytes {
			t.Errorf("run %d: %d bytes spilled, serial %d: block boundaries depend on interleaving", i, gotBytes, wantBytes)
		}
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("run %d partition %d: concurrent read differs from serial", i, k)
			}
		}
	}
}

// TestPartitionerEmptyPartitions: a partition nothing was routed to reads
// back empty, creates no file and releases cleanly, beside one that holds
// rows.
func TestPartitionerEmptyPartitions(t *testing.T) {
	m, _ := testManager()
	p := NewPartitioner(m, "b", partSchema(), []int{0}, 2, 0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := range 2 {
		if st := readPartition(t, p, k); st.NumRows() != 0 || p.Rows(k) != 0 {
			t.Errorf("partition %d of an unused partitioner holds %d rows", k, st.NumRows())
		}
	}
	if err := p.Add(5, partRows(0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	full := 0
	if p.Rows(1) > 0 {
		full = 1
	}
	if st := readPartition(t, p, full); st.NumRows() != 1 || st.Value(0, 2) != 5 {
		t.Errorf("partition %d: %d rows, want the one written under tag 5", full, st.NumRows())
	}
	if st := readPartition(t, p, 1-full); st.NumRows() != 0 {
		t.Errorf("partition %d: %d rows, want none", 1-full, st.NumRows())
	}
	if m.Files() != 1 {
		t.Errorf("Files() = %d, want 1: an empty partition creates no file", m.Files())
	}
	p.Release(0)
	p.Release(1)
	if live := m.Live(); len(live) != 0 {
		t.Errorf("live after release: %v", live)
	}
}

// TestPartitionerShortFileFails is the size-verified read property through
// the partitioner: a partition file held short by the store, or broken by
// a failed write, fails the read instead of decoding fewer rows.
func TestPartitionerShortFileFails(t *testing.T) {
	m, store := testManager()
	p := NewPartitioner(m, "b", partSchema(), []int{0}, 1, 0)
	if err := p.Add(0, partRows(0, 3000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List()
	data, _ := store.ReadRange(names[0], 0, -1, nil)
	if err := store.Put(names[0], data[:len(data)-BlockHeader]); err != nil {
		t.Fatal(err)
	}
	_, errTable := p.Table(0)
	errRead := p.Read(0, readChunk, func(*tuple.SubTable) error { return nil })
	for _, err := range []error{errTable, errRead} {
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("read of a short partition: err = %v, want a truncation error", err)
		}
	}

	disk := simio.NewDisk(simio.NewMemStore(), 0, 0)
	disk.Fault = func(op string) error {
		if op == "write" {
			return &simio.PartialWriteError{Rule: "test"}
		}
		return nil
	}
	p = NewPartitioner(NewManager(disk, "t", "test", nil, nil), "b", partSchema(), []int{0}, 1, 0)
	var pw *simio.PartialWriteError
	if err := p.Add(0, partRows(0, 3000, 0)); !errors.As(err, &pw) {
		t.Fatalf("faulted add: err = %v, want the partial write", err)
	}
	if _, err := p.Table(0); err == nil {
		t.Error("read of a partition broken by a failed write succeeded")
	}
}

// TestReadStreamsWriteOrder: Read streams a partition whose tags
// interleave block by block as written — tag 1's full block, then each
// tag's remainder in ascending tag — and Table groups the same rows by
// ascending tag.
func TestReadStreamsWriteOrder(t *testing.T) {
	m, _ := testManager()
	p := NewPartitioner(m, "b", partSchema(), []int{0}, 1, 0)
	for _, tag := range []uint32{1, 0} {
		if err := p.Add(tag, partRows(0, 2000, tag)); err != nil { // over one block each
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	if err := p.Read(0, readChunk, func(st *tuple.SubTable) error {
		got = append(got, uint32(st.Value(0, 2)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 0, 0, 1}; !slices.Equal(got, want) {
		t.Errorf("Read streamed block tags %v, want %v", got, want)
	}
	if st := readPartition(t, p, 0); st.NumRows() != 4000 || st.Value(0, 2) != 0 || st.Value(3999, 2) != 1 {
		t.Errorf("Table: %d rows, first tag %v, last tag %v", st.NumRows(), st.Value(0, 2), st.Value(3999, 2))
	}
}

// blockFile writes data as one scratch file and opens it.
func blockFile(t testing.TB, data []byte) *Reader {
	m, _ := testManager()
	f := m.Create("blocks")
	if err := f.Append(data); err != nil {
		t.Fatal(err)
	}
	rd, err := f.Open(readChunk)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func header(tag, rows uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, tag), rows)
}

// TestBlockFraming: both block readers — the streaming one and the
// whole-file split — reject a truncated header, a row count the file
// cannot hold and trailing bytes, and read a clean file to the end.
func TestBlockFraming(t *testing.T) {
	schema := partSchema()
	body := make([]byte, 2*schema.RecordSize())
	good := append(header(9, 2), body...)
	for name, tc := range map[string]struct {
		data   []byte
		blocks int
		want   string
	}{
		"clean":         {append(append([]byte{}, good...), good...), 2, ""},
		"short header":  {good[:5], 0, "block header"},
		"overrun":       {append(header(1, 1<<31), body...), 0, "remain"},
		"short body":    {good[:len(good)-1], 0, "remain"},
		"trailing byte": {append(append([]byte{}, good...), 0), 1, "block header"},
	} {
		rd := blockFile(t, tc.data)
		var err error
		blocks := 0
		for {
			var tag uint32
			var st *tuple.SubTable
			if tag, st, err = rd.block(schema); err != nil {
				break
			}
			if tag != 9 || st.NumRows() != 2 {
				t.Errorf("%s: block %d = tag %d, %d rows", name, blocks, tag, st.NumRows())
			}
			blocks++
		}
		if blocks != tc.blocks {
			t.Errorf("%s: read %d blocks, want %d", name, blocks, tc.blocks)
		}
		if tc.want == "" && err != io.EOF {
			t.Errorf("%s: err = %v, want io.EOF", name, err)
		}
		if tc.want != "" && (err == nil || err == io.EOF || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
		split, err := splitBlocks(tc.data, schema.RecordSize())
		if tc.want == "" && (err != nil || len(split) != tc.blocks) {
			t.Errorf("%s: split into %d blocks, err = %v; want %d", name, len(split), err, tc.blocks)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: split err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

func TestDecodeRowsErrors(t *testing.T) {
	schema := tuple.NewSchema(tuple.Attr{Name: "x", Kind: tuple.Coord}, tuple.Attr{Name: "y", Kind: tuple.Coord})
	if _, err := DecodeRows(schema, make([]byte, 7), tuple.ID{Table: -1}); err == nil {
		t.Error("misaligned bucket bytes accepted")
	}
	st, err := DecodeRows(schema, make([]byte, 16), tuple.ID{Table: -1, Chunk: 3})
	if err != nil || st.NumRows() != 2 || st.ID.Chunk != 3 {
		t.Errorf("decode: %v rows=%d id=%v", err, st.NumRows(), st.ID)
	}
}

// partitionBytes writes rows under the given tags through a partitioner
// with one partition and returns the file.
func partitionBytes(t testing.TB, tags []uint32) []byte {
	m, store := testManager()
	p := NewPartitioner(m, "b", partSchema(), []int{0, 1}, 1, 0)
	for i, tag := range tags {
		if err := p.Add(tag, partRows(i*40, (i+1)*40, tag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	names, _ := store.List()
	data, _ := store.ReadRange(names[0], 0, -1, nil)
	return data
}

// FuzzScratchBlocks feeds hostile bytes to both block readers and to
// DecodeRows: none may panic, and whatever they accept must account for
// every byte. Seeds are a Grace-Hash-shaped partition (scanner slots
// interleaved) and a GROUP-BY-shaped one (every block under tag 0).
func FuzzScratchBlocks(f *testing.F) {
	f.Add(partitionBytes(f, []uint32{2, 0, 1, 0, 2, 1}))
	f.Add(partitionBytes(f, []uint32{0, 0, 0, 0, 0}))
	f.Add(header(0, 1))
	schema := partSchema()
	rec := schema.RecordSize()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rd := blockFile(t, data)
		consumed := 0
		for {
			_, st, err := rd.block(schema)
			if err == io.EOF {
				if consumed != len(data) {
					t.Fatalf("clean EOF after %d of %d bytes", consumed, len(data))
				}
				break
			}
			if err != nil {
				break
			}
			consumed += BlockHeader + st.NumRows()*rec
		}
		if blocks, err := splitBlocks(data, rec); err == nil {
			size := 0
			bodies := make([][]byte, len(blocks))
			for i, b := range blocks {
				size += BlockHeader + len(b.body)
				bodies[i] = b.body
			}
			st, err := decodeRows(schema, tuple.ID{}, bodies...)
			if size != len(data) || err != nil || st.NumRows()*rec != size-BlockHeader*len(blocks) {
				t.Fatalf("split %d bytes into %d blocks covering %d: %v", len(data), len(blocks), size, err)
			}
		}
		if st, err := DecodeRows(schema, data, tuple.ID{}); err == nil && st.NumRows()*rec != len(data) {
			t.Fatalf("DecodeRows accepted %d bytes as %d rows", len(data), st.NumRows())
		}
	})
}
