package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// seedEncode is the original append-growth encoder, kept as the benchmark
// baseline: growing from nil reallocates O(log size) times and writes every
// float through a 4-byte staging buffer.
func seedEncode(dst []byte, st *SubTable) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], codecMagic)
	dst = append(dst, buf[:]...)
	binary.LittleEndian.PutUint32(buf[:], uint32(st.ID.Table))
	dst = append(dst, buf[:]...)
	binary.LittleEndian.PutUint32(buf[:], uint32(st.ID.Chunk))
	dst = append(dst, buf[:]...)
	dst = append(dst, byte(len(st.Schema.Attrs)), byte(len(st.Schema.Attrs)>>8))
	for _, a := range st.Schema.Attrs {
		dst = append(dst, byte(len(a.Name)), byte(len(a.Name)>>8))
		dst = append(dst, a.Name...)
		dst = append(dst, byte(a.Kind))
	}
	binary.LittleEndian.PutUint32(buf[:], uint32(st.NumRows()))
	dst = append(dst, buf[:]...)
	for c := 0; c < st.Schema.NumAttrs(); c++ {
		for _, v := range st.Col(c) {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			dst = append(dst, buf[:]...)
		}
	}
	return dst
}

// benchTable builds an n-row, 4-attribute sub-table, the shape a typical
// chunk fetch moves over the wire.
func benchTable(n int) *SubTable {
	st := NewSubTable(ID{Table: 1, Chunk: 7}, testSchema(), n)
	for i := 0; i < n; i++ {
		st.AppendRow(float32(i%64), float32(i/64), float32(i%8), float32(i)/3)
	}
	return st
}

var codecSizes = []int{1024, 65536}

func BenchmarkEncode(b *testing.B) {
	for _, n := range codecSizes {
		st := benchTable(n)
		size := EncodedSize(st)
		b.Run(fmt.Sprintf("seed/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				seedEncode(nil, st)
			}
		})
		b.Run(fmt.Sprintf("pooled/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				buf := Encode(GetBuf(size), st)
				PutBuf(buf)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, n := range codecSizes {
		st := benchTable(n)
		wire := Encode(nil, st)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeys packs the (x, y, z) join key of a 2 048-row sub-table —
// one IJ build side in the benchmark grid — a row at a time and a column
// at a time.
func BenchmarkKeys(b *testing.B) {
	st := benchTable(2048)
	keyIdxs := []int{0, 1, 2}
	keys := make([]uint64, st.NumRows())
	b.Run("row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := range keys {
				keys[r] = st.Key(r, keyIdxs)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keys = st.Keys(keys, keyIdxs)
		}
	})
}
