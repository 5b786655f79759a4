package scratch

import (
	"testing"

	"sciview/internal/tuple"
)

// BenchmarkScratchRoundTrip writes ~1 MB of rows through a Partitioner on
// an in-memory disk, then reads every partition back twice: streamed
// (Read) and whole (Table). B/op prices the scratch I/O path's own
// buffers: store pages, read chunks and block decode.
func BenchmarkScratchRoundTrip(b *testing.B) {
	const rows, batch, parts = 1 << 16, 4096, 8 // 65 536 × 12 B ≈ 0.75 MiB
	var batches []*tuple.SubTable
	for from := 0; from < rows; from += batch {
		batches = append(batches, partRows(from, from+batch, uint32(from/batch%4)))
	}
	m, _ := testManager()
	b.SetBytes(int64(rows * partSchema().RecordSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPartitioner(m, "bench", partSchema(), []int{0, 1}, parts, 1)
		for _, st := range batches {
			if err := p.Add(uint32(st.Value(0, 2)), st); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			b.Fatal(err)
		}
		got := 0
		for k := range parts {
			if err := p.Read(k, readChunk, func(st *tuple.SubTable) error {
				got += st.NumRows()
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			st, err := p.Table(k)
			if err != nil {
				b.Fatal(err)
			}
			got += st.NumRows()
			p.Release(k)
		}
		if got != 2*rows {
			b.Fatalf("read back %d rows, want %d", got, 2*rows)
		}
	}
}
