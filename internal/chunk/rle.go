package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"sciview/internal/tuple"
)

func init() {
	Register(RLE{})
}

// RLE is a run-length-encoded column-major layout: for each attribute, a
// run count followed by (length, value) runs. Structured grid data
// compresses well under RLE — coordinate columns are long runs by
// construction (z and y repeat for entire planes and rows) — so chunks are
// smaller on disk and cheaper to transfer, at the price of a real
// decompression step in the extractor. This models the compressed
// application formats common for simulation output.
//
// Wire layout per column:  u32 numRuns, then numRuns × (u32 length,
// f32 value). Columns appear in schema order.
type RLE struct{}

// Name implements Extractor.
func (RLE) Name() string { return "rle" }

// runEnd returns the end of the run starting at col[i]. Runs compare bit
// patterns, not float values, so -0 never joins a +0 run.
func runEnd(col []float32, i int) int {
	bits := math.Float32bits(col[i])
	j := i + 1
	for j < len(col) && math.Float32bits(col[j]) == bits {
		j++
	}
	return j
}

// Encode implements Extractor.
func (RLE) Encode(st *tuple.SubTable) ([]byte, error) {
	var out []byte
	var buf [4]byte
	for c := 0; c < st.Schema.NumAttrs(); c++ {
		col := st.Col(c)
		// First pass: count runs.
		runs := 0
		for i := 0; i < len(col); i = runEnd(col, i) {
			runs++
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(runs))
		out = append(out, buf[:]...)
		for i := 0; i < len(col); {
			j := runEnd(col, i)
			binary.LittleEndian.PutUint32(buf[:], uint32(j-i))
			out = append(out, buf[:]...)
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(col[i]))
			out = append(out, buf[:]...)
			i = j
		}
	}
	return out, nil
}

// Extract implements Extractor.
func (RLE) Extract(d *Desc, data []byte) (*tuple.SubTable, error) {
	schema := d.Schema()
	na := schema.NumAttrs()
	if na == 0 {
		return nil, fmt.Errorf("chunk: rle chunk %v has no attributes", d.ID())
	}
	cols := make([][]float32, na)
	off := 0
	rows := -1
	// A column holds at most the rows the catalog recorded for the chunk,
	// and every column after the first exactly the first's: a hostile run
	// length must not expand into gigabytes.
	limit := math.MaxInt
	if d.Rows > 0 {
		limit = d.Rows
	}
	for c := 0; c < na; c++ {
		if len(data) < off+4 {
			return nil, fmt.Errorf("chunk: rle chunk %v: truncated at column %d header", d.ID(), c)
		}
		runs := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		var col []float32
		if rows > 0 {
			col = make([]float32, 0, rows)
		}
		for r := 0; r < runs; r++ {
			if len(data) < off+8 {
				return nil, fmt.Errorf("chunk: rle chunk %v: truncated run %d of column %d", d.ID(), r, c)
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			value := math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:]))
			off += 8
			if length == 0 || len(col)+length > limit {
				return nil, fmt.Errorf("chunk: rle chunk %v: invalid run length %d in column %d", d.ID(), length, c)
			}
			for k := 0; k < length; k++ {
				col = append(col, value)
			}
		}
		if rows < 0 {
			rows, limit = len(col), len(col)
		} else if len(col) != rows {
			return nil, fmt.Errorf("chunk: rle chunk %v: column %d has %d rows, column 0 has %d",
				d.ID(), c, len(col), rows)
		}
		cols[c] = col
	}
	if off != len(data) {
		return nil, fmt.Errorf("chunk: rle chunk %v: %d trailing bytes", d.ID(), len(data)-off)
	}
	return tuple.FromColumns(d.ID(), schema, cols)
}
