package hashjoin

import (
	"fmt"
	"math/rand"
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
				if _, err := hb.Build(l, edgeKeys, 1, nil); err != nil {
					b.Fatal(err)
				}
				for _, r := range rs {
					out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
					if m, err := hb.Probe(r, edgeKeys, 1, out, nil); err != nil || m != r.NumRows() {
						b.Fatalf("probe: %d matches, %v", m, err)
					}
				}
			}
			rows := l.NumRows() + len(rs)*rs[0].NumRows()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkJoinPairSpill is one overflowing GH bucket pair as gh_spill
// runs it: 16 384 rows a side on (x,y,z), every right row partnered, the
// right side shuffled, a build-side cap of a sixth of the left bytes and
// fanout 8 — one split into eight leaves — through a reused Builder with an
// identity round trip, so only the join is priced. ns/row is per row of
// either side; probed/op counts the lookups.
func BenchmarkJoinPairSpill(b *testing.B) {
	const n = 1 << 14 // a 32×32×16 block
	coord := func(n string) tuple.Attr { return tuple.Attr{Name: n, Kind: tuple.Coord} }
	meas := func(n string) tuple.Attr { return tuple.Attr{Name: n, Kind: tuple.Measure} }
	left := tuple.NewSubTable(tuple.ID{Table: 0}, tuple.NewSchema(coord("x"), coord("y"), coord("z"), meas("oilp"), meas("soil")), n)
	right := tuple.NewSubTable(tuple.ID{Table: 1}, tuple.NewSchema(coord("x"), coord("y"), coord("z"), meas("wp"), meas("swat")), n)
	for i := 0; i < n; i++ {
		left.AppendRow(float32(i%32), float32(i/32%32), float32(i/1024), float32(i), float32(i)/2)
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		right.AppendRow(float32(i%32), float32(i/32%32), float32(i/1024), float32(i)+0.25, float32(i)+0.5)
	}
	outSchema := left.Schema.JoinResult(right.Schema, edgeKeys, "r_")
	hooks := SpillHooks{RoundTrip: func(_ string, st *tuple.SubTable) (*tuple.SubTable, error) { return st, nil }}
	var hb Builder
	var stats Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
		_, m, err := hb.JoinPairSpill(left, right, edgeKeys, "b", 1, int64(left.Bytes()/6), 8, 3, spillPart, hooks, out, &stats)
		if err != nil || m != n {
			b.Fatalf("spill join: %d matches, %v", m, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/row")
	b.ReportMetric(float64(stats.TuplesProbed.Load())/float64(b.N), "probed/op")
}
