package cluster

import (
	"math"
	"testing"

	"sciview/internal/colenc"
	"sciview/internal/tuple"
)

// fetchedFrame is an n-row frame of three columns, row-major or encoded.
func fetchedFrame(n int, tag float32, encoded bool) (*Fetched, *tuple.SubTable) {
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: int32(n)}, tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "oilp", Kind: tuple.Measure},
	), n)
	for i := 0; i < n; i++ {
		st.AppendRow(float32(i%4), float32(i/4), tag+float32(i)*0.5)
	}
	if encoded {
		return FetchedEncoded(colenc.FromSubTable(st)), st
	}
	return FetchedSubTable(st), st
}

func sameCol(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeBufReuse: frames of both forms and of growing and shrinking
// sizes, decoded one after another into one buffer, whole (SubTableIn) or
// a column subset (Columns), each reproduce their rows. A row-major
// frame's own columns are read as is and never written by a later decode
// into the buffer.
func TestDecodeBufReuse(t *testing.T) {
	var buf DecodeBuf
	var kept []*tuple.SubTable // the row-major frames' rows, as handed out
	var want []*tuple.SubTable // the same rows, made again
	for i, n := range []int{16, 64, 8, 64, 0, 32} {
		for _, encoded := range []bool{true, false} {
			f, st := fetchedFrame(n, float32(100*i), encoded)
			whole, err := f.SubTableIn(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if whole.NumRows() != n || whole.ID != st.ID || !whole.Schema.Equal(st.Schema) {
				t.Fatalf("frame %d: %v, %d rows", i, whole.ID, whole.NumRows())
			}
			for c := 0; c < 3; c++ {
				if !sameCol(whole.Col(c), st.Col(c)) {
					t.Fatalf("frame %d (encoded %v): column %d differs", i, encoded, c)
				}
			}
			cols, err := f.Columns(&buf, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			if len(cols) != 3 || !sameCol(cols[2], st.Col(2)) {
				t.Fatalf("frame %d (encoded %v): payload column differs", i, encoded)
			}
			if encoded && (cols[0] != nil || cols[1] != nil) {
				t.Fatalf("frame %d: columns outside the subset were handed out", i)
			}
			if !encoded {
				_, again := fetchedFrame(n, float32(100*i), false)
				kept, want = append(kept, whole), append(want, again)
			}
		}
	}
	for i, st := range kept {
		for c := 0; c < 3; c++ {
			if !sameCol(st.Col(c), want[i].Col(c)) {
				t.Fatalf("row-major frame %d: column %d was overwritten through the buffer", i, c)
			}
		}
	}
	f, _ := fetchedFrame(4, 0, true)
	if _, err := f.Columns(&buf, []int{3}); err == nil {
		t.Error("a column outside the schema was decoded")
	}
}
