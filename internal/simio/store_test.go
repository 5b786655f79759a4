package simio

import (
	"bytes"
	"errors"
	"testing"
)

// TestStoreContract runs one contract against both stores: appends that
// straddle MemStore's page boundaries, ReadRange into nil, short and
// oversized buffers, the out-of-range errors, recycled pages never
// showing stale bytes, and a short write persisting exactly half.
func TestStoreContract(t *testing.T) {
	stores := []struct {
		name string
		new  func(t *testing.T) Store
	}{
		{"mem", func(*testing.T) Store { return NewMemStore() }},
		{"file", func(t *testing.T) Store {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s Store)
	}{
		{"appends straddle pages", func(t *testing.T, s Store) {
			var want []byte
			for i, n := range []int{pageSize - 3, 10, 2*pageSize + 5, 1, pageSize} {
				part := pattern(n, byte(i))
				want = append(want, part...)
				if err := s.Append("o", part); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := s.Size("o"); err != nil || n != int64(len(want)) {
				t.Fatalf("Size = %d, %v; want %d", n, err, len(want))
			}
			got, err := s.ReadRange("o", 0, -1, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("whole read: %v, equal=%v", err, bytes.Equal(got, want))
			}
			for _, r := range [][2]int64{{pageSize - 5, 20}, {pageSize, pageSize}, {1, 3*pageSize + 10}, {int64(len(want)), 0}} {
				got, err := s.ReadRange("o", r[0], r[1], nil)
				if err != nil || !bytes.Equal(got, want[r[0]:r[0]+r[1]]) {
					t.Errorf("ReadRange(%d, %d): %v, equal=%v", r[0], r[1], err, bytes.Equal(got, want[r[0]:r[0]+r[1]]))
				}
			}
		}},
		{"dst nil, short and oversized", func(t *testing.T, s Store) {
			data := pattern(pageSize+100, 3)
			if err := s.Put("o", data); err != nil {
				t.Fatal(err)
			}
			want := data[50 : 50+pageSize]
			for _, dst := range [][]byte{nil, make([]byte, 7), make([]byte, 3, 10), make([]byte, 0, 2*pageSize)} {
				got, err := s.ReadRange("o", 50, pageSize, dst)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("cap(dst)=%d: %v, equal=%v", cap(dst), err, bytes.Equal(got, want))
				}
				if cap(dst) >= pageSize && &got[0] != &dst[:1][0] {
					t.Errorf("cap(dst)=%d: an oversized dst was not reused", cap(dst))
				}
			}
			got, err := s.ReadRange("o", 0, -1, make([]byte, 5, 3*pageSize))
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("read to end into a long dst: len %d, %v", len(got), err)
			}
		}},
		{"out of range", func(t *testing.T, s Store) {
			if err := s.Put("o", []byte("abcdef")); err != nil {
				t.Fatal(err)
			}
			for _, r := range [][2]int64{{-1, 2}, {4, 10}, {7, 1}} {
				if _, err := s.ReadRange("o", r[0], r[1], nil); err == nil {
					t.Errorf("ReadRange(%d, %d) on 6 bytes succeeded", r[0], r[1])
				}
			}
			if _, err := s.ReadRange("missing", 0, 1, nil); err == nil {
				t.Error("ReadRange of a missing object succeeded")
			}
			if got, err := s.ReadRange("o", 6, 0, nil); err != nil || len(got) != 0 {
				t.Errorf("empty range at the end = %q, %v", got, err)
			}
		}},
		{"recycled pages hide stale bytes", func(t *testing.T, s Store) {
			stale := bytes.Repeat([]byte{0xAA}, 2*pageSize)
			for round := range 4 {
				if err := s.Put("old", stale); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete("old"); err != nil {
					t.Fatal(err)
				}
				if err := s.Append("new", []byte("xy")); err != nil {
					t.Fatal(err)
				}
				want := bytes.Repeat([]byte("xy"), round+1)
				got, err := s.ReadRange("new", 0, -1, make([]byte, 0, pageSize))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("round %d: read %q, %v; want %q", round, got, err, want)
				}
				if _, err := s.ReadRange("new", 0, int64(len(want))+1, nil); err == nil {
					t.Fatalf("round %d: read past the written length succeeded", round)
				}
			}
			// A replacing Put recycles the old pages too.
			if err := s.Put("new", []byte("z")); err != nil {
				t.Fatal(err)
			}
			if got, err := s.ReadRange("new", 0, -1, nil); err != nil || string(got) != "z" {
				t.Errorf("after a replacing Put: %q, %v", got, err)
			}
		}},
		{"short write persists half", func(t *testing.T, s Store) {
			d := NewDisk(s, 0, 0)
			if err := d.Append("o", []byte("head")); err != nil {
				t.Fatal(err)
			}
			d.Fault = func(op string) error {
				if op == "write" {
					return &PartialWriteError{Rule: "test"}
				}
				return nil
			}
			payload := pattern(2*pageSize+2, 9)
			var pw *PartialWriteError
			if err := d.Append("o", payload); !errors.As(err, &pw) {
				t.Fatalf("Append under the fault: %v, want a PartialWriteError", err)
			}
			d.Fault = nil
			want := append([]byte("head"), payload[:len(payload)/2]...)
			got, err := d.ReadRange("o", 0, -1, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("after the short write: %d bytes, %v; want exactly the first half (%d bytes)",
					len(got), err, len(want))
			}
		}},
	}
	for _, st := range stores {
		for _, tc := range cases {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) { tc.run(t, st.new(t)) })
		}
	}
}
