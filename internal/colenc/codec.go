package colenc

import (
	"encoding/binary"
	"fmt"

	"sciview/internal/tuple"
)

// SVT2 wire format (little endian) — the compressed columnar successor to
// the row-major SVT1 format in internal/tuple:
//
//	magic     uint32  "SVT2"
//	table     int32
//	chunk     int32
//	numAttrs  uint16
//	per attr: nameLen uint16, name bytes, kind uint8
//	rows      uint32
//	per col:  enc uint8, payloadLen uint32, payload bytes
//
// The header is identical to SVT1 through the attribute list; the magic
// tells the two apart, and each decoder rejects the other's frames. A BDS
// server answers SVT2 only to a request that asked for it (see bds).

// Magic identifies an SVT2 frame ("SVT2").
const Magic = 0x53565432

// headerSize returns the size of the SVT2 header for a schema.
func headerSize(s tuple.Schema) int {
	n := 4 + 4 + 4 + 2
	for _, a := range s.Attrs {
		n += 2 + len(a.Name) + 1
	}
	return n + 4
}

// EncodedSize returns the exact SVT2 wire size of t.
func EncodedSize(t *Table) int {
	n := headerSize(t.Schema)
	for _, c := range t.Cols {
		n += 5 + len(c.Data)
	}
	return n
}

// Encode serializes t, appending to dst (which may be nil) and returning
// the extended slice. Like tuple.Encode, the size is known up front, so
// dst grows at most once.
func Encode(dst []byte, t *Table) []byte {
	size := EncodedSize(t)
	start := len(dst)
	if cap(dst)-start < size {
		grown := make([]byte, start, start+size)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+size]
	b := dst[start:]

	binary.LittleEndian.PutUint32(b[0:], Magic)
	binary.LittleEndian.PutUint32(b[4:], uint32(t.ID.Table))
	binary.LittleEndian.PutUint32(b[8:], uint32(t.ID.Chunk))
	binary.LittleEndian.PutUint16(b[12:], uint16(len(t.Schema.Attrs)))
	off := 14
	for _, a := range t.Schema.Attrs {
		binary.LittleEndian.PutUint16(b[off:], uint16(len(a.Name)))
		off += 2
		off += copy(b[off:], a.Name)
		b[off] = byte(a.Kind)
		off++
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(t.Rows))
	off += 4
	for _, c := range t.Cols {
		b[off] = c.Enc
		binary.LittleEndian.PutUint32(b[off+1:], uint32(len(c.Data)))
		off += 5
		off += copy(b[off:], c.Data)
	}
	return dst
}

// Decode parses an SVT2 frame, returning the table and the bytes
// consumed. Column payloads are copied out of src (into one backing
// array), so the source buffer may be recycled immediately. Hostile input
// yields an error, never a panic or an oversized allocation: every read is
// bounds-checked and the row count is capped.
func Decode(src []byte) (*Table, int, error) {
	const hdr = 4 + 4 + 4 + 2
	if len(src) < hdr {
		return nil, 0, fmt.Errorf("colenc: short buffer (%d bytes) decoding header", len(src))
	}
	if m := binary.LittleEndian.Uint32(src[0:]); m != Magic {
		return nil, 0, fmt.Errorf("colenc: bad magic %#x", m)
	}
	id := tuple.ID{
		Table: int32(binary.LittleEndian.Uint32(src[4:])),
		Chunk: int32(binary.LittleEndian.Uint32(src[8:])),
	}
	numAttrs := int(binary.LittleEndian.Uint16(src[12:]))
	off := hdr
	attrs := make([]tuple.Attr, numAttrs)
	for i := 0; i < numAttrs; i++ {
		if len(src) < off+2 {
			return nil, 0, fmt.Errorf("colenc: short buffer decoding attribute %d name length", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(src[off:]))
		off += 2
		if len(src) < off+nameLen+1 {
			return nil, 0, fmt.Errorf("colenc: short buffer decoding attribute %d", i)
		}
		attrs[i] = tuple.Attr{Name: string(src[off : off+nameLen]), Kind: tuple.Kind(src[off+nameLen])}
		off += nameLen + 1
	}
	if len(src) < off+4 {
		return nil, 0, fmt.Errorf("colenc: short buffer decoding row count")
	}
	rows := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if rows > maxDecodeRows {
		return nil, 0, fmt.Errorf("colenc: row count %d exceeds decode limit", rows)
	}
	// First pass: bounds-check the column sections and total their payload
	// bytes, so one backing array can hold every copied payload.
	scan, total := off, 0
	for c := 0; c < numAttrs; c++ {
		if len(src) < scan+5 {
			return nil, 0, fmt.Errorf("colenc: short buffer decoding column %d header", c)
		}
		plen := int(binary.LittleEndian.Uint32(src[scan+1:]))
		if len(src) < scan+5+plen {
			return nil, 0, fmt.Errorf("colenc: short buffer: column %d claims %d payload bytes, have %d",
				c, plen, len(src)-scan-5)
		}
		scan += 5 + plen
		total += plen
	}
	backing := make([]byte, total)
	cols := make([]Col, numAttrs)
	at := 0
	for c := 0; c < numAttrs; c++ {
		enc := src[off]
		plen := int(binary.LittleEndian.Uint32(src[off+1:]))
		off += 5
		payload := backing[at : at+plen : at+plen]
		copy(payload, src[off:off+plen])
		off += plen
		at += plen
		cols[c] = Col{Enc: enc, Data: payload}
	}
	t := &Table{ID: id, Schema: tuple.Schema{Attrs: attrs}, Rows: rows, Cols: cols}
	return t, off, nil
}
