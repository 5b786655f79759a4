// Package hashjoin implements the in-memory hash join sub-routine both
// distributed join algorithms employ: build a hash table over the left
// (inner) relation keyed on the join attributes, then probe it with each
// record of the right (outer) relation.
//
// The join runs on columns. Keys are packed a column at a time
// (tuple.SubTable.Keys — the one key definition, under which -0 and +0 are
// one key and NaN matches nothing). The table is a flat open-addressing
// structure — power-of-two capacity, linear probing, packed uint64 keys with
// per-row chain links — rather than a Go map. The probe is one loop: it
// looks each right key up, verifies real equality, and records the match as
// a (left row, right row) pair in two index vectors; the output is then
// gathered once per column — left columns by the left vector, the right
// side's non-key columns by the right vector. The output holds only the
// columns its schema names, an ordered subset of the join result, so a
// consumer that reads few columns gathers few, and one that only counts
// (an output with no columns) gathers none. The out-of-core pair join
// (JoinPairSpill) runs the same loop per leaf over that leaf's right rows
// and keeps the right-row vector as its merge tag. A whole in-memory
// probe's vectors can be copied out (Builder.Pairs) and gathered again
// later (Builder.Gather) with the same per-column gather: the output
// without a lookup, and without reading the right side's key columns.
//
// The table is split into hash partitions so Build can insert partitions
// concurrently and Probe can scan disjoint right-row ranges concurrently;
// chains are linked in ascending left-row order and range outputs land at
// prefix-summed offsets, which makes the output byte-identical regardless
// of worker count.
//
// A Builder owns the arrays all of this needs — the table's own and the
// transient build and probe scratch — and reuses them for its next table,
// so a joiner working through a schedule allocates per edge little more
// than its output columns. It has one live table in its arena at a time,
// which its Probe probes. BuildParallel's tables are independent: each
// owns its arrays, is read-only once built, and may be probed by any
// number of goroutines at once, each with fresh scratch (ProbeParallel).
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
	"slices"
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

// HashTable is a flat open-addressing hash table over a left sub-table,
// keyed on join attributes, mapping packed keys to chains of row indices.
//
// Layout: the slot array is divided into nparts contiguous partitions
// (partition = low bits of tuple.Mix under tuple.SaltTable, slot = its
// high bits, so keys one GH bucket or overflow split kept together still
// spread over every partition). Each partition is an independent
// power-of-two open-addressing region at most half full.
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

// Builder builds hash tables out of one arena: the table arrays and the
// transient build and probe scratch are kept and reused by the next Build,
// which therefore invalidates the previous table. The zero value is ready.
// A Builder and its table belong to one goroutine at a time.
type Builder struct {
	ht      HashTable
	rowKeys []uint64 // packed key per left row
	pstart  []int32  // nparts+1 row-range boundaries in rorder
	rorder  []int32  // rows counting-sorted by partition (nparts > 1 only)
	tails   []int32  // slot → last row of its chain, while chains grow
	probe   probeScratch
	rsel    []int32 // every right row, JoinPairSpill's first selection
}

// resize returns s with length n, reallocating only when its capacity is
// short. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
// ascending row order. The table is independent — it shares no arena, so
// any number may be alive and probed at once. The *Parallel names stay
// because bench/probes.go calls them (rename with a benchmark PR).
func BuildParallel(left *tuple.SubTable, keys []string, workFactor, workers int, stats *Stats) (*HashTable, error) {
	var b Builder
	if _, err := b.build(left, keys, workFactor, workers, stats); err != nil {
		return nil, err
	}
	ht := b.ht // the table's arrays only, not the build scratch
	return &ht, nil
}

// Build constructs the builder's table over left, as BuildParallel does,
// reusing the arena. The table it returned before is dead.
func (b *Builder) Build(left *tuple.SubTable, keys []string, workers int, stats *Stats) (*HashTable, error) {
	return b.build(left, keys, 1, workers, stats)
}

func (b *Builder) build(left *tuple.SubTable, keys []string, workFactor, workers int, stats *Stats) (*HashTable, error) {
	if workFactor < 1 {
		workFactor = 1
	}
	keyIdxs, err := left.Schema.Indexes(keys)
	if err != nil {
		return nil, fmt.Errorf("hashjoin: build: %w", err)
	}
	n := left.NumRows()
	nparts := numParts(n)
	ht := &b.ht
	ht.left, ht.keyIdxs, ht.nparts = left, keyIdxs, nparts
	ht.next = resize(ht.next, n)
	workers = Workers(n, workers)
	if workers > nparts {
		workers = nparts
	}

	b.rowKeys = left.Keys(b.rowKeys, keyIdxs)
	rowKeys := b.rowKeys

	// Lay out the slot ranges: each partition gets a power-of-two region at
	// most half full. pstart bounds each partition's rows in rorder; with a
	// single partition rorder is the identity and is never materialised.
	pmask := uint64(nparts - 1)
	b.pstart = resize(b.pstart, nparts+1)
	pstart := b.pstart
	clear(pstart)
	if nparts == 1 {
		pstart[1] = int32(n)
	} else {
		for _, k := range rowKeys {
			pstart[(tuple.Mix(k, tuple.SaltTable)&pmask)+1]++
		}
		for p := 0; p < nparts; p++ {
			pstart[p+1] += pstart[p]
		}
	}
	ht.offs = resize(ht.offs, nparts+1)
	ht.mask = resize(ht.mask, nparts)
	total := int32(0)
	for p := 0; p < nparts; p++ {
		cap := nextPow2(2 * int(pstart[p+1]-pstart[p]))
		ht.offs[p] = total
		ht.mask[p] = uint32(cap - 1)
		total += int32(cap)
	}
	ht.offs[nparts] = total
	ht.keys = resize(ht.keys, int(total))
	ht.heads = resize(ht.heads, int(total))
	b.tails = resize(b.tails, int(total)) // only needed while chains grow

	// Counting-sort rows into per-partition lists, preserving ascending row
	// order within each partition.
	var rorder []int32
	if nparts > 1 {
		b.rorder = resize(b.rorder, n)
		rorder = b.rorder
		pos := slices.Clone(pstart[:nparts])
		for r, k := range rowKeys {
			p := tuple.Mix(k, tuple.SaltTable) & pmask
			rorder[pos[p]] = int32(r)
			pos[p]++
		}
	}

	// Insert, one goroutine per partition block.
	heads, slotKeys, tails, next := ht.heads, ht.keys, b.tails, ht.next
	runRanges(nparts, workers, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			base := ht.offs[p]
			m := int32(ht.mask[p])
			for s := base; s <= base+m; s++ {
				heads[s] = -1
			}
			for i := pstart[p]; i < pstart[p+1]; i++ {
				r := i
				if rorder != nil {
					r = rorder[i]
				}
				k := rowKeys[r]
				slot := base + int32(uint32(tuple.Mix(k, tuple.SaltTable)>>32))&m
				for heads[slot] >= 0 && slotKeys[slot] != k {
					slot = base + (slot-base+1)&m
				}
				if heads[slot] < 0 {
					heads[slot] = r
					slotKeys[slot] = k
				} else {
					next[tails[slot]] = r
				}
				tails[slot] = r
				next[r] = -1
			}
		}
	})

	if stats != nil {
		stats.TuplesBuilt.Add(int64(n * workFactor))
	}
	return ht, nil
}

// runRanges splits [0, n) into `workers` contiguous ranges and runs
// fn(w, lo, hi) on the w-th; serial when workers <= 1.
func runRanges(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, 0, n)
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
		go func(w int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w)
	}
	wg.Wait()
}

// lookup returns the first left row whose packed key equals k, or -1.
func (ht *HashTable) lookup(k uint64) int32 {
	h := tuple.Mix(k, tuple.SaltTable)
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

// probeScratch is what a probe needs besides the table: how the left,
// right and output schemas line up against the join keys — resolved once
// and kept while the same schemas keep arriving, which on a joiner's
// schedule is every edge — and the packed right keys and match vectors.
type probeScratch struct {
	left, right, out tuple.Schema
	keyNames         []string
	rKeyIdxs         []int
	// lCols are the left columns that fill out's first columns, rCols the
	// right payload columns (right schema positions) that fill the rest,
	// both in output order: out is an ordered subset of the join result,
	// which is the left attributes followed by the non-key right ones.
	lCols, rCols []int

	keys []uint64
	vecs []matchVec // one per probe worker
	// payload is the right payload columns of the gather under way.
	payload [][]float32
	// leftRows and rightRows are the sides of the last whole probe, whose
	// matches vecs holds; whole is false once a JoinPairSpill leaf's probe
	// has overwritten them.
	leftRows, rightRows int
	whole               bool
}

// matchVec is the matches of one contiguous right-row range: pairs
// (left[i], right[i]), ascending in right row, each right row's chain in
// ascending left row. at is the range's first row in the output.
type matchVec struct {
	left, right []int32
	at          int
}

// resolve lines the schemas up against the key names.
func (s *probeScratch) resolve(left, right, out tuple.Schema, keys []string) error {
	if s.rKeyIdxs != nil && slices.Equal(keys, s.keyNames) &&
		right.Equal(s.right) && left.Equal(s.left) && out.Equal(s.out) {
		return nil
	}
	rKeyIdxs, rValIdxs, err := rightLayout(right, keys)
	if err != nil {
		return err
	}
	lCols, rCols, err := outLayout(left, right, keys, rValIdxs, out)
	if err != nil {
		return err
	}
	s.left, s.right, s.out, s.keyNames = left, right, out, slices.Clone(keys)
	s.rKeyIdxs, s.lCols, s.rCols = rKeyIdxs, lCols, rCols
	return nil
}

// rightLayout splits the right schema's columns into the join keys, in key
// order, and the rest, in schema order.
func rightLayout(schema tuple.Schema, keys []string) (rKeyIdxs, rValIdxs []int, err error) {
	rKeyIdxs, err = schema.Indexes(keys)
	if err != nil {
		return nil, nil, err
	}
	for i := range schema.Attrs {
		if !slices.Contains(rKeyIdxs, i) {
			rValIdxs = append(rValIdxs, i)
		}
	}
	return rKeyIdxs, rValIdxs, nil
}

// outLayout finds out's columns in the join result of left and right on
// keys (tuple.Schema.JoinResult, whose right part is the columns rValIdxs),
// which out must list an ordered subset of: the left columns and the right
// payload columns that fill it, in output order.
func outLayout(left, right tuple.Schema, keys []string, rValIdxs []int, out tuple.Schema) (lCols, rCols []int, err error) {
	full := left.JoinResult(right, keys, "r_")
	k := 0
	for i, a := range full.Attrs {
		if k == out.NumAttrs() || out.Attrs[k] != a {
			continue
		}
		if i < left.NumAttrs() {
			lCols = append(lCols, i)
		} else {
			rCols = append(rCols, rValIdxs[i-left.NumAttrs()])
		}
		k++
	}
	if k < out.NumAttrs() {
		return nil, nil, fmt.Errorf("hashjoin: output schema %v is not an ordered subset of the join result %v", out, full)
	}
	return lCols, rCols, nil
}

// ProbeParallel scans right, looks each record up in the hash table
// (counted workFactor times; always 1 in product), and appends matching
// joined records to out, whose schema must be an ordered subset of
// left.Schema.JoinResult(right.Schema, keys, "r_"): only its columns are
// gathered, and an output with no columns still counts its rows. It
// returns the number of result tuples appended. Up to `workers` goroutines
// (1 = serial, <= 0 = all CPUs; small inputs stay serial) each scan a
// contiguous right-row range and gather their matches into out at the
// range's offset, so the result is byte-identical at every worker count.
// Each call allocates its own probe scratch; Builder.Probe reuses one.
func (ht *HashTable) ProbeParallel(right *tuple.SubTable, keys []string, workFactor, workers int, out *tuple.SubTable, stats *Stats) (int, error) {
	return ht.probe(new(probeScratch), right, keys, workFactor, workers, out, stats)
}

// Probe probes the table of the builder's last Build, as ProbeParallel
// does, with the builder's probe scratch, kept from one probe to the next.
func (b *Builder) Probe(right *tuple.SubTable, keys []string, workers int, out *tuple.SubTable, stats *Stats) (int, error) {
	return b.ht.probe(&b.probe, right, keys, 1, workers, out, stats)
}

// probe is the one probe: it lines right up against the keys, packs its
// keys, probes every row and counts the work.
func (ht *HashTable) probe(s *probeScratch, right *tuple.SubTable, keys []string, workFactor, workers int, out *tuple.SubTable, stats *Stats) (int, error) {
	s.whole = false
	if err := s.resolve(ht.left.Schema, right.Schema, out.Schema, keys); err != nil {
		return 0, fmt.Errorf("hashjoin: probe: %w", err)
	}
	s.keys = right.Keys(s.keys, s.rKeyIdxs)
	matches := ht.probeRows(s, right, nil, workers, out)
	s.leftRows, s.rightRows, s.whole = ht.left.NumRows(), right.NumRows(), true
	if stats != nil {
		stats.TuplesProbed.Add(int64(right.NumRows() * max(workFactor, 1)))
		stats.Matches.Add(int64(matches))
	}
	return matches, nil
}

// probeRows looks up the right rows sel (every row when nil), whose keys
// s holds packed, and appends their matches to out. It leaves the match
// vectors in s.vecs (one per worker used), right rows as indices into
// right, for JoinPairSpill's leaves to tag their output with and for
// Pairs to copy.
func (ht *HashTable) probeRows(s *probeScratch, right *tuple.SubTable, sel []int32, workers int, out *tuple.SubTable) int {
	n := right.NumRows()
	if sel != nil {
		n = len(sel)
	}
	workers = Workers(n, workers)
	s.vecs = resize(s.vecs, workers)

	// Match: chains are walked in ascending left-row order, so every range's
	// vectors are in exactly the serial probe's order.
	runRanges(n, workers, func(w, lo, hi int) {
		v := &s.vecs[w]
		// Room for one match per right row: the usual case, so an
		// independent table's fresh vectors are not grown by doubling.
		l, r := slices.Grow(v.left[:0], hi-lo), slices.Grow(v.right[:0], hi-lo)
		// Every row and a selection run apart: a per-row selection test
		// slowed the in-memory probe by about 7 % (BenchmarkProbe, 4 096
		// rows, 2-core Xeon).
		if sel == nil {
			for row := lo; row < hi; row++ {
				for lr := ht.lookup(s.keys[row]); lr >= 0; lr = ht.next[lr] {
					if ht.left.KeysEqual(int(lr), ht.keyIdxs, right, row, s.rKeyIdxs) {
						l, r = append(l, lr), append(r, int32(row))
					}
				}
			}
		} else {
			for _, sr := range sel[lo:hi] {
				row := int(sr)
				for lr := ht.lookup(s.keys[row]); lr >= 0; lr = ht.next[lr] {
					if ht.left.KeysEqual(int(lr), ht.keyIdxs, right, row, s.rKeyIdxs) {
						l, r = append(l, lr), append(r, int32(row))
					}
				}
			}
		}
		v.left, v.right = l, r
	})

	// Gather: one pass per output column per range, at the range's offset.
	// An output with no columns only grows by the match count.
	matches := 0
	for w := range s.vecs {
		s.vecs[w].at = matches
		matches += len(s.vecs[w].left)
	}
	base := out.Extend(matches)
	s.payload = s.payload[:0]
	for _, rc := range s.rCols {
		s.payload = append(s.payload, right.Col(rc))
	}
	runRanges(workers, workers, func(w, _, _ int) {
		v := &s.vecs[w]
		s.gather(out, base+v.at, ht.left, v.left, v.right)
	})
	return matches
}

// gather fills out's rows at.. with one run of matches: the output's left
// columns by l, then its right payload columns (s.payload) by r.
func (s *probeScratch) gather(out *tuple.SubTable, at int, left *tuple.SubTable, l, r []int32) {
	for i, c := range s.lCols {
		out.GatherCol(i, at, left.Col(c), l)
	}
	for i, col := range s.payload {
		out.GatherCol(len(s.lCols)+i, at, col, r)
	}
}

// Pairs is what one in-memory probe matched: the (left row, right row)
// pairs in the order the probe recorded them, and the row counts of the
// two sides they index. Gather reproduces the probe's output from them
// without looking a key up. A Pairs is read-only once made, so any number
// of goroutines may gather from it at once.
type Pairs struct {
	Left, Right         []int32
	LeftRows, RightRows int
}

// pairsHeader is the resident size of a Pairs value itself.
const pairsHeader = 64

// PairsBytes is the resident size of n match pairs: 8 B per match plus
// the header.
func PairsBytes(n int) int { return pairsHeader + 8*n }

// Bytes returns p's resident size (PairsBytes).
func (p *Pairs) Bytes() int { return PairsBytes(len(p.Left)) }

// Indexes reports whether p was recorded over sides of these row counts,
// so that its row indices address them.
func (p *Pairs) Indexes(leftRows, rightRows int) bool {
	return p.LeftRows == leftRows && p.RightRows == rightRows
}

// matched returns the number of pairs the match vectors hold.
func (s *probeScratch) matched() int {
	n := 0
	for _, v := range s.vecs {
		n += len(v.left)
	}
	return n
}

// PairsBytes returns the resident size of what Pairs would return, without
// copying anything: 0 when it would return nil.
func (b *Builder) PairsBytes() int {
	if !b.probe.whole {
		return 0
	}
	return PairsBytes(b.probe.matched())
}

// Pairs returns a copy of the match pairs of the builder's last Probe, or
// nil when a JoinPairSpill has run since: its leaves' vectors are not a
// whole probe's.
func (b *Builder) Pairs() *Pairs {
	s := &b.probe
	if !s.whole {
		return nil
	}
	n := s.matched()
	p := &Pairs{Left: make([]int32, 0, n), Right: make([]int32, 0, n), LeftRows: s.leftRows, RightRows: s.rightRows}
	for _, v := range s.vecs {
		p.Left, p.Right = append(p.Left, v.left...), append(p.Right, v.right...)
	}
	return p
}

// Payload returns the columns of the right schema that a gather of left
// and right into an output of schema out reads: the non-key columns out
// holds, as right schema positions in output order, none when out holds
// no right column. It resolves the layout into the builder's probe
// scratch. Callers must not modify the slice.
func (b *Builder) Payload(left, right, out tuple.Schema, keys []string) ([]int, error) {
	if err := b.probe.resolve(left, right, out, keys); err != nil {
		return nil, fmt.Errorf("hashjoin: gather: %w", err)
	}
	return b.probe.rCols, nil
}

// Gather appends to out the output of the probe that recorded p, looking
// nothing up: out's left columns by p.Left, then its right payload columns
// (Payload) by p.Right. right holds the right side's columns by schema
// position, and only the payload ones are read. The output is
// byte-identical to the probe's at any worker count. Gather counts the
// matches into stats, neither a build nor a probe.
func (b *Builder) Gather(left *tuple.SubTable, p *Pairs, rightSchema tuple.Schema, right [][]float32, keys []string, workers int, out *tuple.SubTable, stats *Stats) (int, error) {
	payload, err := b.Payload(left.Schema, rightSchema, out.Schema, keys)
	if err != nil {
		return 0, err
	}
	if len(right) != rightSchema.NumAttrs() {
		return 0, fmt.Errorf("hashjoin: gather: %d right columns for %d attributes", len(right), rightSchema.NumAttrs())
	}
	s := &b.probe
	s.payload = s.payload[:0]
	for _, rc := range payload {
		if len(right[rc]) != p.RightRows {
			return 0, fmt.Errorf("hashjoin: gather: right column %d has %d rows, pairs index %d", rc, len(right[rc]), p.RightRows)
		}
		s.payload = append(s.payload, right[rc])
	}
	if left.NumRows() != p.LeftRows {
		return 0, fmt.Errorf("hashjoin: gather: left has %d rows, pairs index %d", left.NumRows(), p.LeftRows)
	}
	n := len(p.Left)
	base := out.Extend(n)
	runRanges(n, Workers(n, workers), func(_, lo, hi int) {
		s.gather(out, base+lo, left, p.Left[lo:hi], p.Right[lo:hi])
	})
	if stats != nil {
		stats.Matches.Add(int64(n))
	}
	return n, nil
}

// NestedLoop is the O(n·m) reference join used to validate the hash join
// in tests. It scans the right (outer) relation in the outer loop, so when
// left keys are unique the output order matches Probe's.
func NestedLoop(left, right *tuple.SubTable, keys []string) (*tuple.SubTable, error) {
	lIdx, err := left.Schema.Indexes(keys)
	if err != nil {
		return nil, err
	}
	rIdx, rValIdxs, err := rightLayout(right.Schema, keys)
	if err != nil {
		return nil, err
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
