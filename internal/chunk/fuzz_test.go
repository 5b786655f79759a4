package chunk

import (
	"testing"

	"sciview/internal/tuple"
)

// FuzzExtractors feeds arbitrary bytes to every registered extractor: none
// may panic, and accepted data must re-encode losslessly.
func FuzzExtractors(f *testing.F) {
	st := testTable(9, 77)
	// Dictionary- and delta-patterned tables: the shapes the wire codec's
	// encoders pick up from extracted chunks (low-cardinality cycling
	// values; sequential integral coordinates).
	dict := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 11}, testSchema(), 24)
	delta := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 12}, testSchema(), 24)
	pal := []float32{-1.5, 0, 2.25, 7}
	for i := 0; i < 24; i++ {
		dict.AppendRow(pal[i%4], pal[(i*3)%4], pal[(i*5)%4])
		delta.AppendRow(float32(1000+i), float32(i*i), float32(-i))
	}
	for _, format := range []string{"rowmajor", "colmajor", "csv", "rle"} {
		e, _ := Lookup(format)
		for _, table := range []*tuple.SubTable{st, dict, delta} {
			data, _ := e.Encode(table)
			f.Add(format, data)
			if len(data) > 2 {
				f.Add(format, data[:len(data)-2])
			}
		}
	}
	f.Add("csv", []byte("1,2,3\n4,,6\n"))
	f.Add("rle", []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, format string, data []byte) {
		e, err := Lookup(format)
		if err != nil {
			return
		}
		d := &Desc{Format: format, Attrs: testSchema().Attrs, Rows: 64}
		got, err := e.Extract(d, data)
		if err != nil {
			return
		}
		re, err := e.Encode(got)
		if err != nil {
			t.Fatalf("re-encode of accepted chunk failed: %v", err)
		}
		got2, err := e.Extract(d, re)
		if err != nil {
			t.Fatalf("re-extract failed: %v", err)
		}
		if got2.NumRows() != got.NumRows() {
			t.Fatalf("round trip changed rows: %d vs %d", got2.NumRows(), got.NumRows())
		}
		for r := 0; r < got.NumRows(); r++ {
			for c := 0; c < got.Schema.NumAttrs(); c++ {
				a, b := got.Value(r, c), got2.Value(r, c)
				if a != b && !(a != a && b != b) { // NaN-tolerant
					t.Fatalf("(%d,%d): %v vs %v", r, c, a, b)
				}
			}
		}
	})
}

var _ = tuple.AttrSize // anchor import
