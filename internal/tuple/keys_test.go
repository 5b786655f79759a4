package tuple

import (
	"math"
	"math/rand"
	"testing"
)

// keyTable is a 5-attribute table of small-domain values salted with the
// float specials a key must handle: ±0, NaN, ±Inf.
func keyTable(n int, seed int64) *SubTable {
	r := rand.New(rand.NewSource(seed))
	negZero := math.Float32frombits(1 << 31)
	specials := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -1.5}
	schema := NewSchema(Attr{Name: "a"}, Attr{Name: "b"}, Attr{Name: "c"}, Attr{Name: "d"}, Attr{Name: "e"})
	st := NewSubTable(ID{}, schema, n)
	row := make([]float32, 5)
	for i := 0; i < n; i++ {
		for c := range row {
			if r.Intn(4) == 0 {
				row[c] = specials[r.Intn(len(specials))]
			} else {
				row[c] = float32(r.Intn(16))
			}
		}
		st.AppendRow(row...)
	}
	return st
}

// TestKeysEqualsKeyRowByRow pins the one-definition contract: the bulk
// packing is the single-row packing, for every arity, into a fresh, a
// short and a long-enough destination.
func TestKeysEqualsKeyRowByRow(t *testing.T) {
	st := keyTable(300, 1)
	for _, keyIdxs := range [][]int{{}, {2}, {0, 1}, {4, 0}, {0, 1, 2}, {3, 1, 4, 0}, {0, 1, 2, 3, 4}} {
		for _, dst := range [][]uint64{nil, make([]uint64, 7), make([]uint64, 1000)} {
			got := st.Keys(dst, keyIdxs)
			if len(got) != st.NumRows() {
				t.Fatalf("keys %v: len = %d, want %d", keyIdxs, len(got), st.NumRows())
			}
			for r := range got {
				if want := st.Key(r, keyIdxs); got[r] != want {
					t.Fatalf("keys %v row %d: Keys = %#x, Key = %#x", keyIdxs, r, got[r], want)
				}
			}
		}
	}
	if got := NewSubTable(ID{}, st.Schema, 0).Keys(nil, []int{0, 1, 2}); len(got) != 0 {
		t.Errorf("empty table: %d keys", len(got))
	}
}

// TestKeyPackingPinned pins the exact one- and two-attribute packings
// (float32 bit patterns in disjoint halves — unchanged since the seed) and
// the key-class rule: -0 packs as +0, every NaN (any payload, either sign)
// packs as the one NaN 0x7FC00000, yet a NaN join key never matches.
func TestKeyPackingPinned(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	nan := float32(math.NaN())
	st := NewSubTable(ID{}, NewSchema(Attr{Name: "x"}, Attr{Name: "y"}, Attr{Name: "z"}), 0)
	st.AppendRow(3, 1, 2)
	st.AppendRow(-1.5, negZero, 0)
	st.AppendRow(nan, 0, negZero)
	st.AppendRow(math.Float32frombits(0x7FC00001), math.Float32frombits(0xFFC00000), 1)
	for _, tc := range []struct {
		row     int
		keyIdxs []int
		want    uint64
	}{
		{0, []int{0}, 0x40400000},
		{1, []int{0}, 0xbfc00000},
		{0, []int{1, 2}, 0x3f800000_40000000},
		{1, []int{1}, 0},                      // -0 → +0
		{1, []int{1, 2}, 0},                   // (-0, +0) → (+0, +0)
		{1, []int{0, 1}, 0xbfc00000 << 32},    // (-1.5, -0)
		{2, []int{0}, 0x7fc00000},             // the canonical NaN
		{2, []int{1, 2}, 0},                   // (+0, -0)
		{3, []int{0, 1}, 0x7fc00000_7fc00000}, // other payloads, either sign
		{3, []int{1}, 0x7fc00000},
	} {
		if got := st.Key(tc.row, tc.keyIdxs); got != tc.want {
			t.Errorf("Key(row %d, %v) = %#x, want %#x", tc.row, tc.keyIdxs, got, tc.want)
		}
	}
	// Three attributes fold, but -0 and +0 still fold to one key.
	k := []int{0, 1, 2}
	z := NewSubTable(ID{}, st.Schema, 0)
	z.AppendRow(7, 0, negZero)
	z.AppendRow(7, negZero, 0)
	z.AppendRow(7, 0, 1)
	if z.Key(0, k) != z.Key(1, k) {
		t.Error("3-attribute keys differing only in the sign of zero must pack equal")
	}
	if z.Key(0, k) == z.Key(2, k) {
		t.Error("distinct 3-attribute keys packed equal (possible, but not for this pair)")
	}
	if !z.KeysEqual(0, k, z, 1, k) {
		t.Error("KeysEqual must agree that -0 == +0")
	}
	if st.KeysEqual(2, []int{0}, st, 2, []int{0}) {
		t.Error("a NaN key must not equal itself")
	}
	z.AppendRow(nan, 1, 2)
	z.AppendRow(math.Float32frombits(0xFFC00001), 1, 2)
	if z.Key(3, k) != z.Key(4, k) {
		t.Error("3-attribute keys differing only in a NaN's payload must pack equal")
	}
}

// TestExtendGather covers the column-at-a-time append: Extend's amortised
// growth, GatherCol at an offset, AppendGather onto a pre-filled table.
func TestExtendGather(t *testing.T) {
	src := keyTable(50, 2)
	idx := []int32{49, 0, 0, 17, 3}
	dst := NewSubTable(ID{}, src.Schema, 0)
	dst.AppendRow(1, 2, 3, 4, 5) // pre-filled, as a collecting joiner's output is
	dst.AppendGather(src, idx)
	dst.AppendGather(src, nil)
	if dst.NumRows() != 1+len(idx) {
		t.Fatalf("rows = %d", dst.NumRows())
	}
	if dst.Value(0, 4) != 5 {
		t.Error("AppendGather disturbed earlier rows")
	}
	for i, r := range idx {
		for c := 0; c < 5; c++ {
			if math.Float32bits(dst.Value(1+i, c)) != math.Float32bits(src.Value(int(r), c)) {
				t.Fatalf("row %d col %d: got %v, want src row %d's %v", 1+i, c, dst.Value(1+i, c), r, src.Value(int(r), c))
			}
		}
	}

	// Extend returns the first new row and leaves earlier rows alone;
	// GatherCol fills a sub-range of what it added.
	base := dst.Extend(4)
	if base != 1+len(idx) || dst.NumRows() != base+4 {
		t.Fatalf("Extend: base %d rows %d", base, dst.NumRows())
	}
	dst.GatherCol(2, base+1, src.Col(0), []int32{5, 6})
	if dst.Value(base+1, 2) != src.Value(5, 0) || dst.Value(base+2, 2) != src.Value(6, 0) {
		t.Error("GatherCol wrote the wrong cells")
	}

	// Growth is amortised: appending one row 4 096 times reallocates each
	// column O(log n) times, not n.
	grow := NewSubTable(ID{}, src.Schema, 0)
	reallocs, lastCap := 0, 0
	for i := 0; i < 4096; i++ {
		grow.AppendGather(src, idx[:1])
		if c := cap(grow.Col(0)); c != lastCap {
			reallocs, lastCap = reallocs+1, c
		}
	}
	if reallocs > 40 {
		t.Errorf("4096 one-row appends reallocated a column %d times: growth is not amortised", reallocs)
	}

	defer func() {
		if recover() == nil {
			t.Error("AppendGather across different widths must panic")
		}
	}()
	NewSubTable(ID{}, testSchema(), 0).AppendGather(src, idx)
}
