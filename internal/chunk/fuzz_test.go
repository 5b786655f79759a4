package chunk

import (
	"encoding/binary"
	"math"
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
	// Signed zeros side by side, the bit patterns a value-equal run
	// builder would merge.
	zeros := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 13}, testSchema(), 8)
	negZero := math.Float32frombits(0x80000000)
	for i := 0; i < 8; i++ {
		z := [2]float32{0, negZero}
		zeros.AppendRow(z[i%2], z[(i/2)%2], z[(i/4)%2])
	}
	for _, format := range []string{"rowmajor", "colmajor", "csv", "rle"} {
		e, _ := Lookup(format)
		for _, table := range []*tuple.SubTable{st, dict, delta, zeros} {
			data, _ := e.Encode(table)
			f.Add(format, data)
			if len(data) > 2 {
				f.Add(format, data[:len(data)-2])
			}
		}
	}
	// The zeros again as an rle chunk written one run per row, independent
	// of the encoder under test: one that merges runs by float value
	// cannot re-encode it exactly.
	var split []byte
	for c := 0; c < zeros.Schema.NumAttrs(); c++ {
		split = binary.LittleEndian.AppendUint32(split, uint32(zeros.NumRows()))
		for _, v := range zeros.Col(c) {
			split = binary.LittleEndian.AppendUint32(split, 1)
			split = binary.LittleEndian.AppendUint32(split, math.Float32bits(v))
		}
	}
	f.Add("rle", split)
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
				// Binary formats must keep every bit pattern; csv text
				// keeps values (NaN matching NaN).
				same := math.Float32bits(a) == math.Float32bits(b)
				if format == "csv" {
					same = a == b || (a != a && b != b)
				}
				if !same {
					t.Fatalf("(%d,%d): %v (bits %08x) vs %v (bits %08x)",
						r, c, a, math.Float32bits(a), b, math.Float32bits(b))
				}
			}
		}
	})
}
