package hashjoin

import (
	"math"
	"math/rand"
	"testing"

	"sciview/internal/tuple"
)

// sameRows compares two sub-tables row by row at the bit level.
func sameRows(a, b *tuple.SubTable) bool {
	if a.NumRows() != b.NumRows() || a.Schema.NumAttrs() != b.Schema.NumAttrs() {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.Schema.NumAttrs(); c++ {
			if math.Float32bits(a.Value(r, c)) != math.Float32bits(b.Value(r, c)) {
				return false
			}
		}
	}
	return true
}

// spillPart is the test PartFunc: the split hash the QES runtime uses for
// recursive overflow splits.
func spillPart(key, salt uint64) uint64 {
	return tuple.Mix(key, tuple.SaltSplit(salt))
}

// makeDupPair builds a pair where keys repeat on both sides, so probe
// chains are longer than one and ordering bugs show up as reordered
// equal-key runs.
func makeDupPair(n, dup int, seed int64) (*tuple.SubTable, *tuple.SubTable) {
	r := rand.New(rand.NewSource(seed))
	left := tuple.NewSubTable(tuple.ID{Table: 0, Chunk: 0}, leftSchema(), n)
	right := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 0}, rightSchema(), n)
	for i := 0; i < n; i++ {
		k := i % (n / dup)
		left.AppendRow(float32(k%64), float32(k/64), float32(i))
	}
	for _, i := range r.Perm(n) {
		k := i % (n / dup)
		right.AppendRow(float32(k%64), float32(k/64), float32(i)+0.5)
	}
	return left, right
}

// TestJoinPairSpillByteIdentical sweeps the build-side cap from
// "everything fits" down to a few rows and asserts the spilling join's
// output is byte-identical to the in-memory join at every cap.
func TestJoinPairSpillByteIdentical(t *testing.T) {
	keys := []string{"x", "y"}
	for _, tc := range []struct {
		name   string
		n, dup int
	}{
		{"unique", 600, 1},
		{"dup4", 600, 4},
		{"dup50", 600, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			left, right := makeDupPair(tc.n, tc.dup, 7)
			base, err := Join(left, right, keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cap := range []int64{0, 1 << 20, 4096, 1024, 128} {
				var rts int
				hooks := SpillHooks{
					RoundTrip: func(label string, st *tuple.SubTable) (*tuple.SubTable, error) {
						rts++
						return st, nil // identity round-trip: I/O billing is the caller's job
					},
				}
				out := tuple.NewSubTable(base.ID, base.Schema, 0)
				leaves, matches, err := JoinPairSpill(left, right, keys, "t", 1, 1,
					cap, 8, 3, spillPart, hooks, out, nil)
				if err != nil {
					t.Fatalf("cap %d: %v", cap, err)
				}
				if matches != base.NumRows() {
					t.Fatalf("cap %d: %d matches, want %d", cap, matches, base.NumRows())
				}
				if !sameRows(out, base) {
					t.Fatalf("cap %d: output differs from in-memory join (leaves=%d)", cap, leaves)
				}
				if cap > 0 && int64(left.Bytes()) > cap && rts == 0 {
					t.Fatalf("cap %d: expected round-trips, got none", cap)
				}
			}
		})
	}
}

// TestJoinPairSpillDuplicateKeyFloor: a partition of all-equal keys can
// never shrink below the cap; the recursion must terminate at maxDepth
// with an oversized build instead of looping.
func TestJoinPairSpillDuplicateKeyFloor(t *testing.T) {
	left := tuple.NewSubTable(tuple.ID{Table: 0, Chunk: 0}, leftSchema(), 64)
	right := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 0}, rightSchema(), 2)
	for i := 0; i < 64; i++ {
		left.AppendRow(1, 2, float32(i))
	}
	right.AppendRow(1, 2, 0.5)
	right.AppendRow(9, 9, 1.5)
	base, err := Join(left, right, []string{"x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := tuple.NewSubTable(base.ID, base.Schema, 0)
	hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { return st, nil }}
	leaves, matches, err := JoinPairSpill(left, right, []string{"x", "y"}, "t", 1, 1,
		16, 8, 3, spillPart, hooks, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if matches != 64 || !sameRows(out, base) {
		t.Fatalf("matches=%d leaves=%d, output equal=%v", matches, leaves, sameRows(out, base))
	}
}

// TestJoinPairSpillProbesEachRightRowOnce pins the partitioned probe: at
// every cap, each leaf looks up only the right rows that hash with it, so
// a spilled join probes each right row at most once — exactly once when
// every right key has a left partner, as Section 5's one lookup per tuple
// charges — and its output stays byte-identical to the in-memory join.
func TestJoinPairSpillProbesEachRightRowOnce(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	unique := func() (*tuple.SubTable, *tuple.SubTable) { return makePair(600, 3) }
	dup := func() (*tuple.SubTable, *tuple.SubTable) { return makeDupPair(600, 4, 11) }
	// -0 on the left meets +0 on the right (and the reverse); NaN keys on
	// both sides match nothing; a third of the right rows have no partner.
	specials := func() (*tuple.SubTable, *tuple.SubTable) {
		left := tuple.NewSubTable(tuple.ID{Table: 0, Chunk: 0}, leftSchema(), 0)
		right := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 0}, rightSchema(), 0)
		for i := 0; i < 200; i++ {
			y := float32(i % 50)
			switch i % 4 {
			case 0:
				left.AppendRow(negZero, y, float32(i))
				right.AppendRow(0, y, float32(i)+0.5)
			case 1:
				left.AppendRow(y, 0, float32(i))
				right.AppendRow(y, negZero, float32(i)+0.5)
			case 2:
				left.AppendRow(nan, y, float32(i))
				right.AppendRow(nan, y, float32(i)+0.5)
			default:
				left.AppendRow(y, float32(i), float32(i))
				right.AppendRow(y+1000, float32(i), float32(i)+0.5)
			}
		}
		return left, right
	}
	keys := []string{"x", "y"}
	for _, tc := range []struct {
		name         string
		pair         func() (*tuple.SubTable, *tuple.SubTable)
		allPartnered bool
	}{
		{"unique", unique, true},
		{"dup4", dup, true},
		{"zeros-nan-unmatched", specials, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			left, right := tc.pair()
			base, err := Join(left, right, keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cap := range []int64{0, 1 << 20, 4096, 1024, 128} {
				hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { return st, nil }}
				var stats Stats
				out := tuple.NewSubTable(base.ID, base.Schema, 0)
				leaves, _, err := JoinPairSpill(left, right, keys, "t", 1, 1, cap, 8, 3, spillPart, hooks, out, &stats)
				if err != nil {
					t.Fatalf("cap %d: %v", cap, err)
				}
				if !sameRows(out, base) {
					t.Fatalf("cap %d: output differs from in-memory join (leaves=%d)", cap, leaves)
				}
				probed, rows := stats.TuplesProbed.Load(), int64(right.NumRows())
				if probed > rows || (tc.allPartnered && probed != rows) {
					t.Fatalf("cap %d: probed %d right rows over %d leaves, right side has %d (all partnered: %v)",
						cap, probed, leaves, rows, tc.allPartnered)
				}
				// A leaf without right rows builds nothing, so each left
				// row is built at most once, and exactly once when every
				// left row has a partner to share its leaf with.
				built, lrows := stats.TuplesBuilt.Load(), int64(left.NumRows())
				if built > lrows || (tc.allPartnered && built != lrows) {
					t.Fatalf("cap %d: built %d left rows over %d leaves, left side has %d (all partnered: %v)",
						cap, built, leaves, lrows, tc.allPartnered)
				}
			}
		})
	}
}
