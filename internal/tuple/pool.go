package tuple

import "sync"

// Buffer pools for the hot paths. Steady-state query traffic encodes a
// sub-table per fetch, and a spilling aggregate stages a row per routed
// batch; without reuse that is one short-lived allocation per operation,
// all garbage by the time the response is written. The pools here recycle
// those buffers. (The join itself stages no rows: it gathers columns.)
//
// Ownership rule: a buffer passed to PutBuf/PutRow must not be referenced
// anywhere afterwards. Callers therefore only release buffers whose
// contents have been copied onward (simio stores copy on Append, transport
// frames are written synchronously) or fully consumed (decoded).

// maxPooledBuf caps what PutBuf retains, so a one-off giant encode does not
// pin tens of megabytes in the pool forever.
const maxPooledBuf = 16 << 20

// maxPooledRow caps PutRow retention (rows are schema-width, tiny).
const maxPooledRow = 1 << 12

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a zero-length byte slice with capacity ≥ n, suitable as
// the dst argument of Encode. Release it with PutBuf once the contents are
// no longer referenced.
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) >= n {
		return (*bp)[:0]
	}
	// Undersized: leave it for a smaller request and allocate exactly n.
	bufPool.Put(bp)
	return make([]byte, 0, n)
}

// PutBuf recycles a buffer obtained from GetBuf (or any other slice the
// caller owns outright). Oversized buffers are dropped to the GC.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

var rowPool = sync.Pool{
	New: func() any {
		r := make([]float32, 0, 64)
		return &r
	},
}

// GetRow returns a length-n float32 scratch slice (contents undefined) for
// row materialization. Release with PutRow.
func GetRow(n int) []float32 {
	rp := rowPool.Get().(*[]float32)
	if cap(*rp) >= n {
		return (*rp)[:n]
	}
	rowPool.Put(rp)
	return make([]float32, n)
}

// PutRow recycles a row scratch slice obtained from GetRow.
func PutRow(r []float32) {
	if cap(r) == 0 || cap(r) > maxPooledRow {
		return
	}
	r = r[:0]
	rowPool.Put(&r)
}
