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
