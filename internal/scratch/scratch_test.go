package scratch

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"sciview/internal/fault"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// readChunk is the read chunk the tests stream files through: a few
// chunks' worth of data exercises the reader's refills.
const readChunk = 256 << 10

func testManager() (*Manager, *simio.MemStore) {
	store := simio.NewMemStore()
	return NewManager(simio.NewDisk(store, 0, 0), "t", "test", nil, nil), store
}

func TestCreateAndFileNaming(t *testing.T) {
	m, _ := testManager()
	a := m.Create("run")
	b := m.Create("run")
	if a.Name() == b.Name() {
		t.Errorf("Create returned duplicate names: %q", a.Name())
	}
	if !strings.HasPrefix(a.Name(), "t/") {
		t.Errorf("name %q lacks the manager prefix", a.Name())
	}
	if m.Files() != 2 {
		t.Errorf("Files() = %d, want 2", m.Files())
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	m, _ := testManager()
	f := m.Create("r")
	payload := []byte("hello scratch world")
	if err := f.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), payload...), payload...)
	if !bytes.Equal(got, want) {
		t.Errorf("ReadAll = %q, want %q", got, want)
	}
	if m.BytesWritten() != int64(len(want)) || m.BytesRead() != int64(len(want)) {
		t.Errorf("counters: written=%d read=%d, want %d each", m.BytesWritten(), m.BytesRead(), len(want))
	}
}

func TestReaderChunks(t *testing.T) {
	m, _ := testManager()
	f := m.Create("big")
	// Three read chunks plus a tail.
	data := make([]byte, 3*readChunk+123)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.Append(data); err != nil {
		t.Fatal(err)
	}
	rd, err := f.Open(readChunk)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Remaining() != int64(len(data)) {
		t.Errorf("Remaining = %d, want %d", rd.Remaining(), len(data))
	}
	got, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("streamed bytes differ from appended bytes")
	}
	if rd.Remaining() != 0 {
		t.Errorf("Remaining after EOF = %d", rd.Remaining())
	}
}

// TestTruncationDetected is the no-silent-truncation property: a file
// whose stored size disagrees with the appended size (someone truncated
// or half-wrote it behind the manager's back) fails the read loudly.
func TestTruncationDetected(t *testing.T) {
	m, store := testManager()
	f := m.Create("r")
	if err := f.Append([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(f.Name(), []byte("0123")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("ReadAll on a truncated file: err = %v, want truncation error", err)
	}
	if _, err := f.Open(readChunk); err == nil {
		t.Error("Open on a truncated file succeeded")
	}
}

// TestBrokenAfterWriteError: a failed append marks the file broken; the
// store may hold a partial record, so later appends and reads must fail
// rather than serve it.
func TestBrokenAfterWriteError(t *testing.T) {
	store := simio.NewMemStore()
	disk := simio.NewDisk(store, 0, 0)
	fail := false
	disk.Fault = func(op string) error {
		if op == "write" && fail {
			return &simio.PartialWriteError{Rule: "test"}
		}
		return nil
	}
	m := NewManager(disk, "t", "test", nil, nil)
	f := m.Create("r")
	if err := f.Append([]byte("intact-record")); err != nil {
		t.Fatal(err)
	}
	fail = true
	err := f.Append([]byte("doomed-record"))
	var pw *simio.PartialWriteError
	if err == nil || !errors.As(err, &pw) {
		t.Fatalf("faulted append: err = %v, want PartialWriteError", err)
	}
	fail = false
	if err := f.Append([]byte("more")); err == nil {
		t.Error("append after a write error succeeded on a broken file")
	}
	if _, err := f.ReadAll(); err == nil {
		t.Error("read after a write error served a possibly-partial file")
	}
}

func TestReleaseAndReleaseAll(t *testing.T) {
	m, store := testManager()
	a := m.Create("a")
	b := m.Create("b")
	for _, f := range []*File{a, b} {
		if err := f.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	m.Release(a)
	if names, _ := store.List(); len(names) != 1 {
		t.Errorf("after Release: store holds %v", names)
	}
	if live := m.Live(); len(live) != 1 || live[0] != b.Name() {
		t.Errorf("Live = %v, want [%s]", live, b.Name())
	}
	m.ReleaseAll()
	m.ReleaseAll() // idempotent
	if names, _ := store.List(); len(names) != 0 {
		t.Errorf("after ReleaseAll: store holds %v", names)
	}
	if live := m.Live(); len(live) != 0 {
		t.Errorf("Live after ReleaseAll = %v", live)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
	)
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 2}, schema, 0)
	for i := 0; i < 17; i++ {
		st.AppendRow(float32(i), float32(i)*0.5, -float32(i))
	}
	data := EncodeRows(st)
	got, err := DecodeRows(schema, data, tuple.ID{Table: -1, Chunk: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != st.NumRows() {
		t.Fatalf("decoded %d rows, want %d", got.NumRows(), st.NumRows())
	}
	for r := 0; r < st.NumRows(); r++ {
		for c := 0; c < schema.NumAttrs(); c++ {
			if got.Value(r, c) != st.Value(r, c) {
				t.Fatalf("row %d col %d = %g, want %g", r, c, got.Value(r, c), st.Value(r, c))
			}
		}
	}
	// A non-integral record count is corruption, not a short batch.
	if _, err := DecodeRows(schema, data[:len(data)-3], tuple.ID{}); err == nil {
		t.Error("DecodeRows accepted a partial record")
	}
}

// TestRunRecords: a sorted run written with EncodeRowsAt reads back with
// ReadRecord as the selected rows in the selected order, whether a record
// lies inside one read chunk or straddles two, and a trailing partial
// record is an error, not a short row.
func TestRunRecords(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "z", Kind: tuple.Coord},
	)
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 2}, schema, 0)
	for i := 0; i < 17; i++ {
		st.AppendRow(float32(i), float32(i)*0.5, -float32(i))
	}
	all := make([]int32, st.NumRows())
	for i := range all {
		all[i] = int32(i)
	}
	if !bytes.Equal(EncodeRowsAt(st, all), EncodeRows(st)) {
		t.Fatal("EncodeRowsAt over every row differs from EncodeRows")
	}
	rows := []int32{16, 3, 3, 0, 9}
	for _, chunk := range []int64{5, 12, 24, 1 << 10} {
		m, _ := testManager()
		f := m.Create("run")
		if err := f.Append(append(EncodeRowsAt(st, rows), 1, 2)); err != nil {
			t.Fatal(err)
		}
		rd, err := f.Open(chunk)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, schema.NumAttrs())
		for _, r := range rows {
			if err := rd.ReadRecord(rec); err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if want := st.Row(int(r), nil); !slices.Equal(rec, want) {
				t.Fatalf("chunk %d: record %v, want row %d %v", chunk, rec, r, want)
			}
		}
		if err := rd.ReadRecord(rec); err != io.ErrUnexpectedEOF {
			t.Fatalf("chunk %d: partial record read as %v", chunk, err)
		}
	}
}

// TestRoundTrip: the out-of-core join's spill hook returns the table
// byte-identical, and leaves no file behind — not after a clean trip, and
// not after a torn write or a failed read either.
func TestRoundTrip(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	st := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 7}, schema, 0)
	for i := 0; i < 33; i++ {
		st.AppendRow(float32(i), -float32(i)/3)
	}
	for _, spec := range []string{"", "shortwrite:compute-0:write:1", "drop:compute-0:read:1"} {
		inj, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		store := simio.NewMemStore()
		disk := simio.NewDisk(store, 0, 0)
		disk.Fault = func(op string) error { return inj.Op(fault.ComputeNode(0), op) }
		m := NewManager(disk, "t", "test", nil, nil)
		got, err := m.RoundTrip("p0", st)
		switch {
		case spec == "" && err != nil:
			t.Fatal(err)
		case spec == "" && !bytes.Equal(tuple.Encode(nil, got), tuple.Encode(nil, st)):
			t.Error("round-tripped table differs from the original")
		case spec != "" && err == nil:
			t.Errorf("%s: round trip succeeded through the fault", spec)
		}
		if names, _ := store.List(); len(names) != 0 || len(m.Live()) != 0 {
			t.Errorf("%q: scratch not released: store %v, live %v", spec, names, m.Live())
		}
		if m.Files() != 1 {
			t.Errorf("%q: Files() = %d, want 1", spec, m.Files())
		}
	}
}
