// Package colenc implements the compressed columnar transfer representation
// for sub-tables: each column is carried as an independently encoded byte
// vector — raw float32s, run-length runs, a small dictionary with one-byte
// indices, or zigzag-varint deltas for integral grid coordinates — chosen
// per column as whichever is smallest.
//
// The representation is exact: decode(encode(col)) reproduces the original
// float32 bit patterns. The encoders therefore compare *bit patterns*, not
// float values (so -0 and +0 never merge into one run or dictionary entry),
// and the delta encoding is restricted to columns whose values are all
// integral with magnitude ≤ 2^24 — the range where float32↔int64 conversion
// is lossless — and never applied to -0 or NaN.
//
// A table is encoded from decoded rows only (FromSubTable): the frame is a
// function of a sub-table's rows, not of how its chunk is stored on disk.
package colenc

import (
	"encoding/binary"
	"fmt"
	"math"

	"sciview/internal/tuple"
)

// Column encodings. The values are part of the SVT2 wire format.
const (
	// EncRaw is rows × float32, little endian.
	EncRaw byte = 0
	// EncRLE is u32 numRuns followed by numRuns × (u32 length, f32 value),
	// runs split wherever the bit pattern changes.
	EncRLE byte = 1
	// EncDict is u16 n, n × f32 dictionary values (first-appearance order),
	// then rows × u8 index. Chosen only when a column has ≤ 256 distinct
	// bit patterns.
	EncDict byte = 2
	// EncDelta is a zigzag-varint stream: the first value, then successive
	// differences, all as int64. Chosen only for columns of integral values
	// with |v| ≤ 2^24 (exact in float32), excluding -0 and NaN.
	EncDelta byte = 3
)

// maxDictEntries bounds the dictionary encoding (indices are one byte).
const maxDictEntries = 256

// deltaMaxMagnitude is the largest |value| the delta encoding accepts:
// integers up to 2^24 round-trip float32↔int64 exactly.
const deltaMaxMagnitude = 1 << 24

// Col is one encoded column.
type Col struct {
	Enc  byte
	Data []byte
}

// Table is a sub-table in encoded columnar form: the unit the wire codec
// ships and the compute-node caches retain.
type Table struct {
	ID     tuple.ID
	Schema tuple.Schema
	Rows   int
	Cols   []Col
}

// NumRows returns the number of encoded records.
func (t *Table) NumRows() int { return t.Rows }

// DecodedBytes returns the row-major payload size the table decodes to
// (rows × record size), the quantity the uncompressed path would ship.
func (t *Table) DecodedBytes() int { return t.Rows * t.Schema.RecordSize() }

// StoredBytes returns the resident footprint of the encoded form — the
// exact SVT2 wire size. Caches charge this, not DecodedBytes, so resident
// accounting reflects what is actually held.
func (t *Table) StoredBytes() int { return EncodedSize(t) }

// ---------------------------------------------------------------------
// Encoding

// analysis is the per-column sizing pass: everything needed to pick the
// smallest encoding without building any payload.
type analysis struct {
	runs       int
	dict       []uint32 // distinct bit patterns in first-appearance order; nil when > maxDictEntries
	deltaBytes int
	deltaOK    bool
}

// dictProbeSize is the open-addressed probe table for distinct counting:
// power of two, ≥ 2× maxDictEntries so the load factor stays ≤ 0.5.
const dictProbeSize = 1024

func analyze(col []float32) analysis {
	a := analysis{deltaOK: true}
	var slots [dictProbeSize]uint16 // index+1 into dict, 0 = empty
	dict := make([]uint32, 0, maxDictEntries)
	dictOK := true
	var prevBits uint32
	var prevInt int64
	for i, v := range col {
		bits := math.Float32bits(v)
		if i == 0 || bits != prevBits {
			a.runs++
			prevBits = bits
		}
		if dictOK {
			h := (bits * 2654435761) >> 22 & (dictProbeSize - 1)
			for {
				s := slots[h]
				if s == 0 {
					if len(dict) == maxDictEntries {
						dictOK = false
						break
					}
					dict = append(dict, bits)
					slots[h] = uint16(len(dict))
					break
				}
				if dict[s-1] == bits {
					break
				}
				h = (h + 1) & (dictProbeSize - 1)
			}
		}
		if a.deltaOK {
			iv := int64(v)
			if float32(iv) != v || iv > deltaMaxMagnitude || iv < -deltaMaxMagnitude || bits == 0x80000000 {
				a.deltaOK = false
			} else {
				d := iv
				if i > 0 {
					d = iv - prevInt
				}
				a.deltaBytes += varintLen(d)
				prevInt = iv
			}
		}
	}
	if dictOK {
		a.dict = dict
	}
	return a
}

func varintLen(d int64) int {
	u := uint64(d<<1) ^ uint64(d>>63)
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// sizes returns the candidate payload sizes for a column of `rows` values;
// -1 marks an inapplicable encoding.
func (a analysis) sizes(rows int) (raw, rle, dict, delta int) {
	raw = 4 * rows
	rle = 4 + 8*a.runs
	dict = -1
	if a.dict != nil {
		dict = 2 + 4*len(a.dict) + rows
	}
	delta = -1
	if a.deltaOK {
		delta = a.deltaBytes
	}
	return
}

// choose picks the smallest applicable encoding, deterministically (ties
// resolve in raw < rle < dict < delta order).
func (a analysis) choose(rows int) byte {
	raw, rle, dict, delta := a.sizes(rows)
	best, enc := raw, EncRaw
	if rle < best {
		best, enc = rle, EncRLE
	}
	if dict >= 0 && dict < best {
		best, enc = dict, EncDict
	}
	if delta >= 0 && delta < best {
		enc = EncDelta
	}
	return enc
}

// encodeColumn encodes col with the smallest encoding and returns it.
func encodeColumn(col []float32) Col {
	a := analyze(col)
	switch a.choose(len(col)) {
	case EncRLE:
		return Col{Enc: EncRLE, Data: encodeRLE(col, a.runs)}
	case EncDict:
		return Col{Enc: EncDict, Data: encodeDict(col, a.dict)}
	case EncDelta:
		return Col{Enc: EncDelta, Data: encodeDelta(col, a.deltaBytes)}
	default:
		return Col{Enc: EncRaw, Data: encodeRaw(col)}
	}
}

func encodeRaw(col []float32) []byte {
	out := make([]byte, 4*len(col))
	for i, v := range col {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func encodeRLE(col []float32, runs int) []byte {
	out := make([]byte, 4, 4+8*runs)
	binary.LittleEndian.PutUint32(out, uint32(runs))
	var buf [8]byte
	for i := 0; i < len(col); {
		bits := math.Float32bits(col[i])
		j := i + 1
		for j < len(col) && math.Float32bits(col[j]) == bits {
			j++
		}
		binary.LittleEndian.PutUint32(buf[0:], uint32(j-i))
		binary.LittleEndian.PutUint32(buf[4:], bits)
		out = append(out, buf[:]...)
		i = j
	}
	return out
}

func encodeDict(col []float32, dict []uint32) []byte {
	out := make([]byte, 2+4*len(dict), 2+4*len(dict)+len(col))
	binary.LittleEndian.PutUint16(out, uint16(len(dict)))
	idx := make(map[uint32]byte, len(dict))
	for i, bits := range dict {
		binary.LittleEndian.PutUint32(out[2+4*i:], bits)
		idx[bits] = byte(i)
	}
	for _, v := range col {
		out = append(out, idx[math.Float32bits(v)])
	}
	return out
}

func encodeDelta(col []float32, size int) []byte {
	out := make([]byte, 0, size)
	var buf [binary.MaxVarintLen64]byte
	var prev int64
	for i, v := range col {
		iv := int64(v)
		d := iv
		if i > 0 {
			d = iv - prev
		}
		prev = iv
		n := binary.PutUvarint(buf[:], uint64(d<<1)^uint64(d>>63))
		out = append(out, buf[:n]...)
	}
	return out
}

// FromSubTable encodes every column of st, choosing the smallest encoding
// per column.
func FromSubTable(st *tuple.SubTable) *Table {
	t := &Table{ID: st.ID, Schema: st.Schema, Rows: st.NumRows(),
		Cols: make([]Col, st.Schema.NumAttrs())}
	for c := range t.Cols {
		t.Cols[c] = encodeColumn(st.Col(c))
	}
	return t
}

// WireSize returns the SVT2 wire size st would encode to, via the sizing
// pass alone — no payload is built. The Grace Hash partitioner uses it to
// model its batch shipments under the compressed wire format.
func WireSize(st *tuple.SubTable) int {
	n := headerSize(st.Schema)
	rows := st.NumRows()
	for c := 0; c < st.Schema.NumAttrs(); c++ {
		a := analyze(st.Col(c))
		raw, rle, dict, delta := a.sizes(rows)
		best := raw
		if rle < best {
			best = rle
		}
		if dict >= 0 && dict < best {
			best = dict
		}
		if delta >= 0 && delta < best {
			best = delta
		}
		n += 5 + best
	}
	return n
}

// ---------------------------------------------------------------------
// Decoding

// maxDecodeRows bounds the row count a decoder accepts: RLE runs can claim
// arbitrarily many rows in a handful of payload bytes, and the bound keeps
// hostile input from turning 12 wire bytes into a multi-gigabyte
// allocation.
const maxDecodeRows = 1 << 27

// decodeColumn decodes one encoded column into dst (which must have length
// rows).
func decodeColumn(c Col, rows int, dst []float32) error {
	switch c.Enc {
	case EncRaw:
		if len(c.Data) != 4*rows {
			return fmt.Errorf("colenc: raw column has %d bytes for %d rows", len(c.Data), rows)
		}
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(c.Data[4*i:]))
		}
	case EncRLE:
		n, err := decodeRLE(c.Data, rows, dst)
		if err != nil {
			return err
		}
		if n != rows {
			return fmt.Errorf("colenc: rle column decodes %d rows, want %d", n, rows)
		}
	case EncDict:
		if len(c.Data) < 2 {
			return fmt.Errorf("colenc: dict column truncated")
		}
		n := int(binary.LittleEndian.Uint16(c.Data))
		if len(c.Data) != 2+4*n+rows {
			return fmt.Errorf("colenc: dict column has %d bytes for %d entries, %d rows", len(c.Data), n, rows)
		}
		dict := c.Data[2 : 2+4*n]
		idxs := c.Data[2+4*n:]
		for i := range dst {
			idx := int(idxs[i])
			if idx >= n {
				return fmt.Errorf("colenc: dict index %d out of range (%d entries)", idx, n)
			}
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(dict[4*idx:]))
		}
	case EncDelta:
		data := c.Data
		var acc int64
		for i := 0; i < rows; i++ {
			u, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("colenc: delta column truncated at row %d", i)
			}
			data = data[n:]
			acc += int64(u>>1) ^ -int64(u&1)
			dst[i] = float32(acc)
		}
		if len(data) != 0 {
			return fmt.Errorf("colenc: delta column has %d trailing bytes", len(data))
		}
	default:
		return fmt.Errorf("colenc: unknown column encoding %d", c.Enc)
	}
	return nil
}

// decodeRLE expands an RLE payload into dst, returning the rows produced.
// It never writes past dst and validates the payload is fully consumed.
func decodeRLE(data []byte, rows int, dst []float32) (int, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("colenc: rle column truncated")
	}
	runs := int(binary.LittleEndian.Uint32(data))
	off := 4
	n := 0
	for r := 0; r < runs; r++ {
		if len(data) < off+8 {
			return 0, fmt.Errorf("colenc: rle column truncated at run %d", r)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		value := math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:]))
		off += 8
		if length <= 0 || n+length > rows {
			return 0, fmt.Errorf("colenc: rle run %d length %d overflows %d rows", r, length, rows)
		}
		for k := 0; k < length; k++ {
			dst[n+k] = value
		}
		n += length
	}
	if off != len(data) {
		return 0, fmt.Errorf("colenc: rle column has %d trailing bytes", len(data)-off)
	}
	return n, nil
}

// check validates the table's shape before anything is allocated for it
// and returns its attribute count.
func (t *Table) check() (int, error) {
	na := t.Schema.NumAttrs()
	if len(t.Cols) != na {
		return 0, fmt.Errorf("colenc: %d columns for %d attributes", len(t.Cols), na)
	}
	if t.Rows < 0 || (na > 0 && t.Rows > maxDecodeRows/na) {
		return 0, fmt.Errorf("colenc: %d rows × %d attributes exceeds decode limit", t.Rows, na)
	}
	return na, nil
}

// DecodeColumns is the one decode: it decodes the columns cols (schema
// positions; AllColumns lists every one, and nil or empty none) into dst,
// which holds one slice per attribute. Each decoded column is written to
// dst[c] resized to the row count, in dst[c]'s own storage when its
// capacity allows, so a caller that decodes frame after frame into one
// dst allocates only while it grows. The other entries of dst are left as
// they are. The decode is exact: every float32 bit pattern is reproduced.
func (t *Table) DecodeColumns(dst [][]float32, cols []int) error {
	na, err := t.check()
	if err != nil {
		return err
	}
	if len(dst) != na {
		return fmt.Errorf("colenc: %d destination columns for %d attributes", len(dst), na)
	}
	one := func(c int) error {
		if c < 0 || c >= na {
			return fmt.Errorf("colenc: column %d of %d", c, na)
		}
		col := dst[c]
		if cap(col) < t.Rows {
			col = make([]float32, t.Rows)
		}
		dst[c] = col[:t.Rows]
		if err := decodeColumn(t.Cols[c], t.Rows, dst[c]); err != nil {
			return fmt.Errorf("colenc: column %d (%s): %w", c, t.Schema.Attrs[c].Name, err)
		}
		return nil
	}
	for _, c := range cols {
		if err := one(c); err != nil {
			return err
		}
	}
	return nil
}

// SubTable decodes the whole table into a fresh row-major sub-table.
func (t *Table) SubTable() (*tuple.SubTable, error) {
	na, err := t.check()
	if err != nil {
		return nil, err
	}
	backing := make([]float32, na*t.Rows)
	cols := make([][]float32, na)
	for c := range cols {
		cols[c] = backing[c*t.Rows : c*t.Rows : (c+1)*t.Rows]
	}
	if err := t.DecodeColumns(cols, AllColumns(na)); err != nil {
		return nil, err
	}
	return tuple.FromColumns(t.ID, t.Schema, cols)
}

// AllColumns returns the column list 0, 1, …, n-1: every column of an
// n-attribute table.
func AllColumns(n int) []int {
	cols := make([]int, n)
	for c := range cols {
		cols[c] = c
	}
	return cols
}
