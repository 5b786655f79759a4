package tuple

import "sync"

// The buffer pool for the hot paths. Steady-state query traffic encodes a
// sub-table per fetch and a spill block per flushed partition buffer;
// without reuse that is one short-lived allocation per operation, all
// garbage by the time the response or block is written. (The join and the
// partitioners stage no rows: they gather columns.)
//
// Ownership rule: a buffer passed to PutBuf must not be referenced anywhere
// afterwards. Callers therefore only release buffers whose contents have
// been copied onward (simio stores copy on Append, transport frames are
// written synchronously) or fully consumed (decoded).

// maxPooledBuf caps what PutBuf retains, so a one-off giant encode does not
// pin tens of megabytes in the pool forever.
const maxPooledBuf = 16 << 20

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
// caller owns outright). Oversized buffers are dropped to the GC. Under
// the race detector the whole capacity is first overwritten with 0xFF.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	if poisonPut {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	b = b[:0]
	bufPool.Put(&b)
}
