package ingest

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sciview/internal/tuple"
)

// TestCanonicalizeTotalOrder pins Canonicalize as a total order over bit
// patterns: rows that differ only in the sign of a zero or in a NaN payload
// are still ordered (+0 before -0, NaNs last and apart by payload), so every
// permutation of one multiset canonicalizes to the same bytes.
func TestCanonicalizeTotalOrder(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan0 := math.Float32frombits(0x7FC00000)
	nan1 := math.Float32frombits(0x7FC00001)
	want := [][2]float32{
		{-1, 2},
		{0, 5},
		{negZero, 5},
		{1, 0},
		{1, negZero},
		{1, 3},
		{1, nan0},
		{1, nan1},
		{nan0, 1},
	}
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	r := rand.New(rand.NewSource(1))
	var first []byte
	for p := 0; p < 200; p++ {
		st := tuple.NewSubTable(tuple.ID{}, schema, len(want))
		for _, i := range r.Perm(len(want)) {
			st.AppendRow(want[i][0], want[i][1])
		}
		got := Canonicalize(st)
		enc := tuple.Encode(nil, got)
		if first == nil {
			first = enc
			for i, row := range want {
				for c, v := range row {
					if g := got.Value(i, c); math.Float32bits(g) != math.Float32bits(v) {
						t.Fatalf("row %d col %d = %#08x, want %#08x", i, c, math.Float32bits(g), math.Float32bits(v))
					}
				}
			}
			continue
		}
		if !bytes.Equal(enc, first) {
			t.Fatalf("permutation %d canonicalizes to different bytes", p)
		}
	}
}
