package hashjoin

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sciview/internal/tuple"
)

// makeSkewedPair builds a pair with duplicate keys (about dup rows per
// key) so chains are exercised, sized above ParallelThreshold.
func makeSkewedPair(n, dup int, seed int64) (*tuple.SubTable, *tuple.SubTable) {
	r := rand.New(rand.NewSource(seed))
	left := tuple.NewSubTable(tuple.ID{Table: 0, Chunk: 0}, leftSchema(), n)
	right := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 0}, rightSchema(), n)
	keys := n / dup
	for i := 0; i < n; i++ {
		k := i % keys
		left.AppendRow(float32(k%64), float32(k/64), float32(i))
	}
	for _, i := range r.Perm(n) {
		k := i % keys
		right.AppendRow(float32(k%64), float32(k/64), float32(i)+0.5)
	}
	return left, right
}

// TestParallelByteIdentical pins the tentpole invariant: the parallel
// kernels produce byte-for-byte the same output as the serial ones, for
// every worker count, including with duplicate keys (chains). The procs=1
// cases run on a one-CPU host: parallel requests must degrade to serial
// and stay byte-identical.
func TestParallelByteIdentical(t *testing.T) {
	for _, tc := range []struct{ n, dup, procs int }{
		{ParallelThreshold, 1, 0},      // unique keys, just above the threshold
		{ParallelThreshold * 2, 4, 0},  // chains of ~4
		{ParallelThreshold * 2, 64, 0}, // heavy skew
		{ParallelThreshold * 2, 4, 1},
		{ParallelThreshold * 2, 64, 1},
	} {
		name := fmt.Sprintf("n=%d dup=%d", tc.n, tc.dup)
		if tc.procs > 0 {
			name += fmt.Sprintf(" procs=%d", tc.procs)
		}
		t.Run(name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
				if w := Workers(tc.n, 4); w != 1 {
					t.Fatalf("Workers(%d, 4) = %d on a one-CPU host, want 1", tc.n, w)
				}
			}
			left, right := makeSkewedPair(tc.n, tc.dup, int64(tc.n+tc.dup))
			keys := []string{"x", "y"}
			outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")

			htSerial, err := BuildParallel(left, keys, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
			refMatches, err := htSerial.ProbeParallel(right, keys, 1, 1, ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			refBytes := tuple.Encode(nil, ref)

			for _, workers := range []int{2, 3, 4, 0} {
				ht, err := BuildParallel(left, keys, 1, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				out := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
				matches, err := ht.ProbeParallel(right, keys, 1, workers, out, nil)
				if err != nil {
					t.Fatal(err)
				}
				if matches != refMatches {
					t.Fatalf("workers=%d: matches = %d, want %d", workers, matches, refMatches)
				}
				if !bytes.Equal(tuple.Encode(nil, out), refBytes) {
					t.Fatalf("workers=%d: output differs from serial probe", workers)
				}
			}
		})
	}
}

// TestParallelStatsExact pins the accounting contract: worker count never
// changes the charged operation counts.
func TestParallelStatsExact(t *testing.T) {
	left, right := makeSkewedPair(ParallelThreshold*2, 4, 9)
	keys := []string{"x", "y"}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")
	const wf = 3
	want := func(workers int) (built, probed, matches int64) {
		var stats Stats
		ht, err := BuildParallel(left, keys, wf, workers, &stats)
		if err != nil {
			t.Fatal(err)
		}
		out := tuple.NewSubTable(tuple.ID{}, outSchema, 0)
		if _, err := ht.ProbeParallel(right, keys, wf, workers, out, &stats); err != nil {
			t.Fatal(err)
		}
		return stats.TuplesBuilt.Load(), stats.TuplesProbed.Load(), stats.Matches.Load()
	}
	b1, p1, m1 := want(1)
	if b1 != int64(left.NumRows()*wf) || p1 != int64(right.NumRows()*wf) {
		t.Fatalf("serial stats: built %d probed %d", b1, p1)
	}
	b4, p4, m4 := want(4)
	if b1 != b4 || p1 != p4 || m1 != m4 {
		t.Fatalf("stats differ: serial (%d,%d,%d) vs 4 workers (%d,%d,%d)", b1, p1, m1, b4, p4, m4)
	}
}
