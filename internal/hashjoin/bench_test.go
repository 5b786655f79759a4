package hashjoin

import (
	"fmt"
	"testing"

	"sciview/internal/tuple"
)

// The map-based kernel the flat table replaced, kept verbatim as the
// benchmark baseline so the speedup stays measurable against the original.

type mapTable struct {
	left    *tuple.SubTable
	keyIdxs []int
	buckets map[uint64][]int32
}

func mapBuild(left *tuple.SubTable, keys []string) (*mapTable, error) {
	keyIdxs, err := left.Schema.Indexes(keys)
	if err != nil {
		return nil, err
	}
	mt := &mapTable{
		left:    left,
		keyIdxs: keyIdxs,
		buckets: make(map[uint64][]int32, left.NumRows()),
	}
	n := left.NumRows()
	for r := 0; r < n; r++ {
		k := left.Key(r, keyIdxs)
		mt.buckets[k] = append(mt.buckets[k], int32(r))
	}
	return mt, nil
}

func (mt *mapTable) probe(right *tuple.SubTable, keys []string, out *tuple.SubTable) (int, error) {
	rKeyIdxs, err := right.Schema.Indexes(keys)
	if err != nil {
		return 0, err
	}
	isKey := make([]bool, right.Schema.NumAttrs())
	for _, i := range rKeyIdxs {
		isKey[i] = true
	}
	var rValIdxs []int
	for i := range right.Schema.Attrs {
		if !isKey[i] {
			rValIdxs = append(rValIdxs, i)
		}
	}
	lAttrs := mt.left.Schema.NumAttrs()
	n := right.NumRows()
	matches := 0
	row := make([]float32, lAttrs+len(rValIdxs))
	for r := 0; r < n; r++ {
		k := right.Key(r, rKeyIdxs)
		for _, lr := range mt.buckets[k] {
			if !mt.left.KeysEqual(int(lr), mt.keyIdxs, right, r, rKeyIdxs) {
				continue
			}
			for c := 0; c < lAttrs; c++ {
				row[c] = mt.left.Value(int(lr), c)
			}
			for i, rc := range rValIdxs {
				row[lAttrs+i] = right.Value(r, rc)
			}
			out.AppendRow(row...)
			matches++
		}
	}
	return matches, nil
}

var benchKeys = []string{"x", "y"}

// benchPair builds an n-row join pair whose keys span n distinct points
// (selectivity 1), large enough that the table does not fit in L1/L2.
func benchPair(n int) (*tuple.SubTable, *tuple.SubTable) {
	return makePair(n, 42)
}

var benchSizes = []int{4096, 65536, 262144}

func BenchmarkBuild(b *testing.B) {
	for _, n := range benchSizes {
		left, _ := benchPair(n)
		b.Run(fmt.Sprintf("map/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(left.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				if _, err := mapBuild(left, benchKeys); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(left.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				if _, err := BuildParallel(left, benchKeys, 1, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flatpar/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(left.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				if _, err := BuildParallel(left, benchKeys, 1, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProbe(b *testing.B) {
	for _, n := range benchSizes {
		left, right := benchPair(n)
		mt, err := mapBuild(left, benchKeys)
		if err != nil {
			b.Fatal(err)
		}
		ht, err := BuildParallel(left, benchKeys, 1, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		outSchema := left.Schema.JoinResult(right.Schema, benchKeys, "r_")
		b.Run(fmt.Sprintf("map/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(right.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				out := tuple.NewSubTable(tuple.ID{}, outSchema, n)
				if _, err := mt.probe(right, benchKeys, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(right.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				out := tuple.NewSubTable(tuple.ID{}, outSchema, n)
				if _, err := ht.ProbeParallel(right, benchKeys, 1, 1, out, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flatpar/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 4 * int64(right.Schema.NumAttrs()))
			for i := 0; i < b.N; i++ {
				out := tuple.NewSubTable(tuple.ID{}, outSchema, n)
				if _, err := ht.ProbeParallel(right, benchKeys, 1, 0, out, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinPair is the benchmark grid's IJ unit of work (edgeShape):
// one 2 048-row left built once and probed by eight 512-row rights on
// (x,y,z), through a reused Builder with a fresh output per probe, as a
// streaming joiner runs it — under the full projection and under the
// narrowest one a view statement can push down (the keys alone). ns/row is
// per row touched, built or probed.
func BenchmarkJoinPair(b *testing.B) {
	left, rights := edgeShape()
	for _, proj := range []struct {
		name  string
		attrs [2][]string
	}{
		{"full", [2][]string{left.Schema.Names(), rights[0].Schema.Names()}},
		{"keys", [2][]string{edgeKeys, edgeKeys}},
	} {
		b.Run(proj.name, func(b *testing.B) {
			l, err := left.Project(proj.attrs[0])
			if err != nil {
				b.Fatal(err)
			}
			rs := make([]*tuple.SubTable, len(rights))
			for i, r := range rights {
				if rs[i], err = r.Project(proj.attrs[1]); err != nil {
					b.Fatal(err)
				}
			}
			outSchema := l.Schema.JoinResult(rs[0].Schema, edgeKeys, "r_")
			var hb Builder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ht, err := hb.Build(l, edgeKeys, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rs {
					out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
					if m, err := ht.ProbeParallel(r, edgeKeys, 1, 1, out, nil); err != nil || m != r.NumRows() {
						b.Fatalf("probe: %d matches, %v", m, err)
					}
				}
			}
			rows := l.NumRows() + len(rs)*rs[0].NumRows()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
