// Package hashjoin implements the in-memory hash join sub-routine both
// distributed join algorithms employ: build a hash table over the left
// (inner) relation keyed on the join attributes, then probe it with each
// record of the right (outer) relation.
//
// The table is a flat open-addressing structure — power-of-two capacity,
// linear probing, packed uint64 keys with per-row chain links — rather than
// a Go map, so build is a few array writes per row and probe a few array
// reads, with no per-bucket slice headers or map overhead. The table is
// split into hash partitions so Build can insert partitions concurrently
// and Probe can scan disjoint right-row ranges concurrently; chains are
// linked in ascending left-row order, which makes the output byte-identical
// regardless of worker count.
//
// As in the paper's cost model, the build stores only row references (not
// record copies), so build and probe cost per tuple is independent of
// record size (α_build, α_lookup). The QES charges one operation per row
// to its compute node's modeled CPU (cluster.Config.CPUSecPerOp, the one
// knob that emulates a slower processor).
//
// BuildParallel, ProbeParallel and JoinPairSpill still take a workFactor
// that multiplies the counted operations (Stats). Product code always
// passes 1; the parameter stays only because bench/probes.go, which is
// frozen, calls these signatures — it goes with ROADMAP item 1(e).
package hashjoin

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sciview/internal/tuple"
)

// ParallelThreshold is the row count below which build and probe stay serial
// even when more workers are allowed: goroutine fan-out costs more than it
// saves on small sub-tables.
const ParallelThreshold = 8192

// Workers resolves a requested parallelism degree against the host and the
// row count: requested <= 0 means "use all CPUs", and inputs below
// ParallelThreshold always run serially.
func Workers(rows, requested int) int {
	if rows < ParallelThreshold {
		return 1
	}
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		requested = max
	}
	return requested
}

// Stats counts the CPU-cost drivers of the cost models. Counters are
// atomic so concurrent QES instances can share one Stats.
type Stats struct {
	// TuplesBuilt counts hash-table insertions.
	TuplesBuilt atomic.Int64
	// TuplesProbed counts lookup operations.
	TuplesProbed atomic.Int64
	// Matches counts result tuples produced.
	Matches atomic.Int64
}

// Add folds src into s (a joiner attempt's counters into its run's).
func (s *Stats) Add(src *Stats) {
	s.TuplesBuilt.Add(src.TuplesBuilt.Load())
	s.TuplesProbed.Add(src.TuplesProbed.Load())
	s.Matches.Add(src.Matches.Load())
}

// mix is the splitmix64 finalizer: it spreads the packed key bits so both
// the partition index (low bits) and the slot index (high bits) are well
// distributed even for the dense float32 bit patterns real keys have.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashTable is a flat open-addressing hash table over a left sub-table,
// keyed on join attributes, mapping packed keys to chains of row indices.
//
// Layout: the slot array is divided into nparts contiguous partitions
// (partition = low bits of the mixed hash). Each partition is an
// independent power-of-two open-addressing region at most half full.
// A slot is empty iff heads[slot] < 0; an occupied slot holds the packed
// key and the first left row of the chain, with next[row] linking the
// remaining rows in ascending order.
type HashTable struct {
	left    *tuple.SubTable
	keyIdxs []int

	nparts int      // power of two
	offs   []int32  // nparts+1 slot-range boundaries
	mask   []uint32 // per-partition capacity-1
	keys   []uint64 // packed key per occupied slot
	heads  []int32  // slot → first left row, -1 when empty
	next   []int32  // left row → next left row with equal key, -1 at end
}

// numParts picks the partition count for an n-row build: 1 below the
// parallel threshold, then enough partitions to keep per-partition inserts
// balanced, capped so tiny partitions never dominate. Depends only on n,
// never on the worker count, so the table layout is deterministic.
func numParts(n int) int {
	if n < ParallelThreshold {
		return 1
	}
	p := 1
	for p < 64 && n/(2*p) >= ParallelThreshold/2 {
		p *= 2
	}
	return p
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}

// BuildParallel constructs a hash table over left on the given key
// attributes with up to `workers` goroutines (1 = serial, <= 0 = all CPUs;
// small inputs stay serial regardless), accounting workFactor operations
// per row (always 1 in product; see the package comment) into stats (which
// may be nil).
// The resulting table is identical for every worker count: partitioning
// depends only on the rows, and each partition's chains are linked in
// ascending row order. It is the only build; the *Parallel names stay
// because bench/probes.go calls them (rename with a benchmark PR).
func BuildParallel(left *tuple.SubTable, keys []string, workFactor, workers int, stats *Stats) (*HashTable, error) {
	if workFactor < 1 {
		workFactor = 1
	}
	keyIdxs, err := left.Schema.Indexes(keys)
	if err != nil {
		return nil, fmt.Errorf("hashjoin: build: %w", err)
	}
	n := left.NumRows()
	nparts := numParts(n)
	ht := &HashTable{
		left:    left,
		keyIdxs: keyIdxs,
		nparts:  nparts,
		next:    make([]int32, n),
	}
	workers = Workers(n, workers)
	if workers > nparts {
		workers = nparts
	}

	// Pass 1: pack and mix every row key (embarrassingly parallel).
	rowKeys := make([]uint64, n)
	hashes := make([]uint64, n)
	runRanges(n, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			k := left.Key(r, keyIdxs)
			rowKeys[r] = k
			hashes[r] = mix(k)
		}
	})

	// Count rows per partition and lay out the slot ranges: each partition
	// gets a power-of-two region at most half full.
	pmask := uint64(nparts - 1)
	counts := make([]int32, nparts)
	for r := 0; r < n; r++ {
		counts[hashes[r]&pmask]++
	}
	ht.offs = make([]int32, nparts+1)
	ht.mask = make([]uint32, nparts)
	total := int32(0)
	for p := 0; p < nparts; p++ {
		cap := nextPow2(2 * int(counts[p]))
		if cap < 1 {
			cap = 1
		}
		ht.offs[p] = total
		ht.mask[p] = uint32(cap - 1)
		total += int32(cap)
	}
	ht.offs[nparts] = total
	ht.keys = make([]uint64, total)
	ht.heads = make([]int32, total)

	// Counting-sort rows into per-partition lists, preserving ascending row
	// order within each partition.
	rorder := make([]int32, n)
	pstart := make([]int32, nparts+1)
	pos := make([]int32, nparts)
	for p := 0; p < nparts; p++ {
		pstart[p+1] = pstart[p] + counts[p]
		pos[p] = pstart[p]
	}
	for r := 0; r < n; r++ {
		p := hashes[r] & pmask
		rorder[pos[p]] = int32(r)
		pos[p]++
	}

	// Pass 2: insert, one goroutine per partition block. tails[] is only
	// needed while chains grow; it is transient build scratch.
	tails := make([]int32, total)
	runRanges(nparts, workers, func(plo, phi int) {
		for p := plo; p < phi; p++ {
			base := ht.offs[p]
			m := int32(ht.mask[p])
			for s := base; s <= base+m; s++ {
				ht.heads[s] = -1
			}
			for _, r := range rorder[pstart[p]:pstart[p+1]] {
				k := rowKeys[r]
				slot := base + int32(uint32(hashes[r]>>32))&m
				for {
					if ht.heads[slot] < 0 {
						ht.heads[slot] = r
						ht.keys[slot] = k
						tails[slot] = r
						ht.next[r] = -1
						break
					}
					if ht.keys[slot] == k {
						ht.next[tails[slot]] = r
						tails[slot] = r
						ht.next[r] = -1
						break
					}
					slot = base + (slot-base+1)&m
				}
			}
		}
	})

	if stats != nil {
		stats.TuplesBuilt.Add(int64(n * workFactor))
	}
	return ht, nil
}

// runRanges splits [0, n) into `workers` contiguous ranges and runs fn on
// each; serial when workers <= 1.
func runRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// Left returns the build-side sub-table.
func (ht *HashTable) Left() *tuple.SubTable { return ht.left }

// lookup returns the first left row whose packed key equals k, or -1.
func (ht *HashTable) lookup(k uint64) int32 {
	h := mix(k)
	p := h & uint64(ht.nparts-1)
	base := ht.offs[p]
	m := int32(ht.mask[p])
	slot := base + int32(uint32(h>>32))&m
	for {
		head := ht.heads[slot]
		if head < 0 {
			return -1
		}
		if ht.keys[slot] == k {
			return head
		}
		slot = base + (slot-base+1)&m
	}
}

// ProbeParallel scans right, looks each record up in the hash table
// (counted workFactor times; always 1 in product), and appends matching
// joined records to out, whose schema must be
// left.Schema.JoinResult(right.Schema, keys, ...). It
// returns the number of result tuples appended. Up to `workers` goroutines
// (1 = serial, <= 0 = all CPUs; small inputs stay serial) each scan a
// contiguous right-row range into their own output sub-table; the pieces
// are concatenated in range order, so the result is byte-identical at
// every worker count.
func (ht *HashTable) ProbeParallel(right *tuple.SubTable, keys []string, workFactor, workers int, out *tuple.SubTable, stats *Stats) (int, error) {
	if workFactor < 1 {
		workFactor = 1
	}
	rKeyIdxs, err := right.Schema.Indexes(keys)
	if err != nil {
		return 0, fmt.Errorf("hashjoin: probe: %w", err)
	}
	// Non-key right columns, in right schema order: these follow the left
	// attributes in the result schema.
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
	wantAttrs := ht.left.Schema.NumAttrs() + len(rValIdxs)
	if out.Schema.NumAttrs() != wantAttrs {
		return 0, fmt.Errorf("hashjoin: output schema has %d attrs, want %d", out.Schema.NumAttrs(), wantAttrs)
	}

	n := right.NumRows()
	workers = Workers(n, workers)
	if workers <= 1 {
		matches := ht.probeRange(right, rKeyIdxs, rValIdxs, 0, n, out)
		if stats != nil {
			stats.TuplesProbed.Add(int64(n * workFactor))
			stats.Matches.Add(int64(matches))
		}
		return matches, nil
	}

	parts := make([]*tuple.SubTable, workers)
	partMatches := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		parts[w] = tuple.NewSubTable(out.ID, out.Schema, 0)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partMatches[w] = ht.probeRange(right, rKeyIdxs, rValIdxs, lo, hi, parts[w])
		}(w, lo, hi)
	}
	wg.Wait()
	matches := 0
	for w := 0; w < workers; w++ {
		matches += partMatches[w]
		if err := out.AppendAll(parts[w]); err != nil {
			return 0, fmt.Errorf("hashjoin: probe concat: %w", err)
		}
	}
	if stats != nil {
		stats.TuplesProbed.Add(int64(n * workFactor))
		stats.Matches.Add(int64(matches))
	}
	return matches, nil
}

// probeRange probes right rows [lo, hi) into out, returning the match
// count. Chains are walked in ascending left-row order, so appends happen
// in exactly the serial probe's order.
func (ht *HashTable) probeRange(right *tuple.SubTable, rKeyIdxs, rValIdxs []int, lo, hi int, out *tuple.SubTable) int {
	lAttrs := ht.left.Schema.NumAttrs()
	row := tuple.GetRow(lAttrs + len(rValIdxs))
	defer tuple.PutRow(row)
	matches := 0
	for r := lo; r < hi; r++ {
		k := right.Key(r, rKeyIdxs)
		for lr := ht.lookup(k); lr >= 0; lr = ht.next[lr] {
			if !ht.left.KeysEqual(int(lr), ht.keyIdxs, right, r, rKeyIdxs) {
				continue
			}
			for c := 0; c < lAttrs; c++ {
				row[c] = ht.left.Value(int(lr), c)
			}
			for i, rc := range rValIdxs {
				row[lAttrs+i] = right.Value(r, rc)
			}
			out.AppendRow(row...)
			matches++
		}
	}
	return matches
}

// Join builds over left and probes with right in one call, returning the
// joined sub-table. It is the per-edge operation of the IJ algorithm and
// the per-bucket-pair operation of Grace Hash.
func Join(left, right *tuple.SubTable, keys []string, stats *Stats) (*tuple.SubTable, error) {
	ht, err := BuildParallel(left, keys, 1, 1, stats)
	if err != nil {
		return nil, err
	}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")
	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, outSchema, 0)
	if _, err := ht.ProbeParallel(right, keys, 1, 1, out, stats); err != nil {
		return nil, err
	}
	return out, nil
}

// NestedLoop is the O(n·m) reference join used to validate the hash join
// in tests. It scans the right (outer) relation in the outer loop, so when
// left keys are unique the output order matches Probe's.
func NestedLoop(left, right *tuple.SubTable, keys []string) (*tuple.SubTable, error) {
	lIdx, err := left.Schema.Indexes(keys)
	if err != nil {
		return nil, err
	}
	rIdx, err := right.Schema.Indexes(keys)
	if err != nil {
		return nil, err
	}
	isKey := make([]bool, right.Schema.NumAttrs())
	for _, i := range rIdx {
		isKey[i] = true
	}
	var rValIdxs []int
	for i := range right.Schema.Attrs {
		if !isKey[i] {
			rValIdxs = append(rValIdxs, i)
		}
	}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")
	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, outSchema, 0)
	row := make([]float32, outSchema.NumAttrs())
	for rr := 0; rr < right.NumRows(); rr++ {
		for lr := 0; lr < left.NumRows(); lr++ {
			if !left.KeysEqual(lr, lIdx, right, rr, rIdx) {
				continue
			}
			for c := 0; c < left.Schema.NumAttrs(); c++ {
				row[c] = left.Value(lr, c)
			}
			for i, rc := range rValIdxs {
				row[left.Schema.NumAttrs()+i] = right.Value(rr, rc)
			}
			out.AppendRow(row...)
		}
	}
	return out, nil
}
