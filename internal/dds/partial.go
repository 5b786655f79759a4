package dds

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// Aggregation state: a query folds its rows, in the order its plan
// releases them, into one Partial (per-group count/sum/min/max state) and
// finalizes it into the output table. A spilling GROUP BY gives each
// scratch partition a Partial of its own; a group's rows all reach one
// partition, so they fold in the same order as in memory.

// Partial is per-group aggregation state for a fixed (items, groupBy)
// specification.
//
// The groups live in a flat table. A row's group key is its packed key
// (tuple.SubTable.Keys over the group columns: the key definition the
// join, GH routing and the spill partitioner share). A power-of-two
// open-addressed slot array, probed by tuple.Mix(key, tuple.SaltTable)
// and at most a quarter full, holds each group's packed key beside its
// number g, so a probe reads one slot. Flat slices hold g's key words, one
// accumulator per item and, only under HAVING, the HAVING accumulator.
// Keys of one or two columns pack exactly, so a slot hit on them compares
// the packed key alone and their words are unpacked from it once, when the
// group is added. Wider keys are FNV-folded and may collide, so their rows
// carry key words and a slot hit on them also compares the words.
type Partial struct {
	schema   tuple.Schema
	items    []query.SelectItem
	groupBy  []string
	groupIdx []int
	itemIdx  []int       // -1 for an item over "*"
	kinds    []query.Agg // the kind each item folds as: COUNT over "*"
	havingOn bool
	havIdx   int // -1 for HAVING over "*"
	havKind  query.Agg

	// The groups.
	n     int           // groups
	shift uint          // 64 - log2(len(slots))
	slots []slot        // at most a quarter full
	words []uint32      // key words of group g at [g*nk, (g+1)*nk)
	accs  []accumulator // item i of group g at g*len(items)+i
	hav   []accumulator // group g's HAVING state; nil without HAVING

	// Fold's scratch: the block's packed keys, their hashes, the key words
	// of keys of three or more columns, and the group number of each row.
	inKeys  []uint64
	inHash  []uint64
	inWords []uint32
	gid     []int32
}

// slot is one entry of the group table: a group's packed key and its
// number plus one, 0 in an empty slot.
type slot struct {
	key uint64
	g   int32
}

// NewPartial prepares empty state. having may be nil; when present its
// accumulator is folded alongside (the HAVING aggregate may differ from
// every select item).
func NewPartial(schema tuple.Schema, items []query.SelectItem, groupBy []string, having *query.Having) (*Partial, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("dds: no aggregation items")
	}
	itemIdx := make([]int, len(items))
	kinds := make([]query.Agg, len(items))
	for i, it := range items {
		if it.Star || it.Agg == query.AggNone {
			return nil, fmt.Errorf("dds: aggregation requires aggregate items, got %+v", it)
		}
		itemIdx[i] = schema.Index(it.Attr)
		if it.Attr != "*" && itemIdx[i] < 0 {
			return nil, fmt.Errorf("dds: no attribute %q to aggregate", it.Attr)
		}
		kinds[i] = foldKind(it.Agg, itemIdx[i])
	}
	groupIdx, err := schema.Indexes(groupBy)
	if err != nil {
		return nil, err
	}
	p := &Partial{
		schema:   schema,
		items:    items,
		groupBy:  groupBy,
		groupIdx: groupIdx,
		itemIdx:  itemIdx,
		kinds:    kinds,
	}
	if having != nil {
		p.havIdx = schema.Index(having.Attr)
		if having.Attr != "*" && p.havIdx < 0 {
			return nil, fmt.Errorf("dds: HAVING references unknown attribute %q", having.Attr)
		}
		p.havingOn = true
		p.havKind = foldKind(having.Agg, p.havIdx)
	}
	return p, nil
}

// foldKind is the kind an aggregate agg over column c folds as. An
// aggregate over "*" (c < 0; the parser allows only COUNT(*)) reads no
// column, so it folds as COUNT, leaving the group's sum, min and max 0.
func foldKind(agg query.Agg, c int) query.Agg {
	if c < 0 {
		return query.AggCount
	}
	return agg
}

// Groups returns the number of distinct groups accumulated so far —
// the quantity out-of-core aggregation compares against its memory
// charge to detect skewed partitions.
func (p *Partial) Groups() int { return p.n }

// Fold accumulates every row of st into the partial state: under GROUP BY
// a lookup maps the rows to group numbers, then one pass per item column
// folds the column into its accumulators. A group still sees its rows in
// row order, so every float sum is what a row-at-a-time fold computes.
func (p *Partial) Fold(st *tuple.SubTable) error {
	if st == nil || st.NumRows() == 0 {
		return nil
	}
	if !st.Schema.Equal(p.schema) {
		return fmt.Errorf("dds: mixed schemas in aggregation input")
	}
	// A large table folds a block at a time, so that the per-row scratch
	// stays in cache between passes.
	if rows := st.NumRows(); rows > foldBlock {
		for lo := 0; lo < rows; lo += foldBlock {
			p.fold(st.Slice(lo, min(lo+foldBlock, rows)))
		}
		return nil
	}
	p.fold(st)
	return nil
}

// foldBlock is the most rows fold takes at once: its scratch (packed keys,
// hashes, key words, group numbers) then stays within a few tens of KiB.
const foldBlock = 2048

// fold folds the rows of st, which has p's schema.
func (p *Partial) fold(st *tuple.SubTable) {
	if len(p.groupIdx) == 0 {
		if p.n == 0 {
			p.n = 1
			p.growState()
		}
		rows := st.NumRows()
		for i, c := range p.itemIdx {
			foldOne(&p.accs[i], p.kinds[i], column(st, c), rows)
		}
		if p.havingOn {
			foldOne(&p.hav[0], p.havKind, column(st, p.havIdx), rows)
		}
		return
	}
	p.lookup(st)
	ni := len(p.items)
	for i, c := range p.itemIdx {
		foldItem(p.accs[i:], ni, p.gid, p.kinds[i], column(st, c))
	}
	if p.havingOn {
		foldItem(p.hav, 1, p.gid, p.havKind, column(st, p.havIdx))
	}
}

// column is st's column c, or nil for "*" (c < 0).
func column(st *tuple.SubTable, c int) []float32 {
	if c < 0 {
		return nil
	}
	return st.Col(c)
}

// foldItem folds row r of col into accs[gid[r]*stride] as an aggregate of
// kind agg, for every row r, touching only the fields that kind reads: a
// COUNT its count (col may be nil), a SUM its sum, an AVG both, a MIN or
// MAX its value and the count that tells a group's first value, which
// seeds the value whatever it is (NaN included).
func foldItem(accs []accumulator, stride int, gid []int32, agg query.Agg, col []float32) {
	switch agg {
	case query.AggCount:
		for _, g := range gid {
			accs[int(g)*stride].count++
		}
	case query.AggSum:
		col = col[:len(gid)]
		for r, g := range gid {
			accs[int(g)*stride].sum += float64(col[r])
		}
	case query.AggAvg:
		col = col[:len(gid)]
		for r, g := range gid {
			a := &accs[int(g)*stride]
			a.count++
			a.sum += float64(col[r])
		}
	case query.AggMin:
		col = col[:len(gid)]
		for r, g := range gid {
			a, v := &accs[int(g)*stride], float64(col[r])
			if a.count == 0 || v < a.min {
				a.min = v
			}
			a.count++
		}
	case query.AggMax:
		col = col[:len(gid)]
		for r, g := range gid {
			a, v := &accs[int(g)*stride], float64(col[r])
			if a.count == 0 || v > a.max {
				a.max = v
			}
			a.count++
		}
	}
}

// foldOne folds the first rows values of col into a as foldItem does when
// every row is in one group, in the same order and so to the same bits,
// carrying the state in locals rather than through memory.
func foldOne(a *accumulator, agg query.Agg, col []float32, rows int) {
	switch agg {
	case query.AggSum, query.AggAvg:
		sum := a.sum
		for _, v := range col[:rows] {
			sum += float64(v)
		}
		a.sum = sum
	case query.AggMin:
		m := a.min
		if a.count == 0 {
			m = float64(col[0])
		}
		for _, v := range col[:rows] {
			if v := float64(v); v < m {
				m = v
			}
		}
		a.min = m
	case query.AggMax:
		m := a.max
		if a.count == 0 {
			m = float64(col[0])
		}
		for _, v := range col[:rows] {
			if v := float64(v); v > m {
				m = v
			}
		}
		a.max = m
	}
	if agg != query.AggSum {
		a.count += int64(rows)
	}
}

// lookup maps each row of st to its group number, adding the groups the
// table lacks, and leaves the numbers in p.gid. It packs the block's keys,
// hashes them in one branch-free pass and has probe map them; only keys of
// three or more columns take a pass for their words.
func (p *Partial) lookup(st *tuple.SubTable) {
	rows := st.NumRows()
	keys := st.Keys(p.inKeys, p.groupIdx)
	hash := slices.Grow(p.inHash[:0], rows)[:rows]
	for r, k := range keys {
		hash[r] = tuple.Mix(k, tuple.SaltTable)
	}
	p.inKeys, p.inHash = keys, hash
	var words []uint32
	if nk := len(p.groupIdx); nk > 2 {
		words = slices.Grow(p.inWords[:0], rows*nk)[:rows*nk]
		for j, ci := range p.groupIdx {
			for r, v := range st.Col(ci)[:rows] {
				words[r*nk+j] = tuple.KeyWord(v)
			}
		}
		p.inWords = words
	}
	p.probe(keys, hash, words)
}

// probe maps each packed key keys[r], whose hash is hash[r], to its group
// number in p.gid, adding the groups the table lacks. words holds each
// key's words when keys have three or more columns and is nil when they
// pack exactly, so that a hit compares the packed key alone. In a table at
// most a quarter full the first slot a key probes usually holds it. The
// hashes are kept whole and shifted at each probe, so a rehash partway
// through the block places the keys still waiting in the grown table.
func (p *Partial) probe(keys, hash []uint64, words []uint32) {
	if p.slots == nil {
		p.rehash(0)
	}
	gid := slices.Grow(p.gid[:0], len(keys))[:len(keys)]
	nk := len(p.groupIdx)
	slots, shift := p.slots, p.shift
	mask := uint64(len(slots) - 1)
	// add fills the empty slot in place and may rehash, which replaces
	// the array: the loops reload it after every add.
	if words == nil {
		for r, h := range hash {
			k := keys[r]
			for pos := h >> shift; ; pos = (pos + 1) & mask {
				if s := slots[pos]; s.key == k && s.g != 0 {
					gid[r] = s.g - 1
					break
				} else if s.g == 0 {
					gid[r] = p.add(&slots[pos], k, nil)
					slots, shift, mask = p.slots, p.shift, uint64(len(p.slots)-1)
					break
				}
			}
		}
	} else {
		for r, h := range hash {
			k, w := keys[r], words[r*nk:(r+1)*nk]
			for pos := h >> shift; ; pos = (pos + 1) & mask {
				if s := slots[pos]; s.key == k && s.g != 0 && slices.Equal(p.words[int(s.g-1)*nk:int(s.g)*nk], w) {
					gid[r] = s.g - 1
					break
				} else if s.g == 0 {
					gid[r] = p.add(&slots[pos], k, w)
					slots, shift, mask = p.slots, p.shift, uint64(len(p.slots)-1)
					break
				}
			}
		}
	}
	p.gid = gid
	p.growState()
}

// add makes key k, with words w (nil: unpacked from k), group n in the
// empty slot s and returns its number. Its accumulators come with the next
// growState.
func (p *Partial) add(s *slot, k uint64, w []uint32) int32 {
	g := p.n
	p.n++
	*s = slot{key: k, g: int32(g + 1)}
	nk := len(p.groupIdx)
	p.words = grown(p.words, p.n*nk)
	if w != nil {
		copy(p.words[g*nk:], w)
	} else {
		// An exact key is its columns' KeyValue bits, first column highest.
		for j := range nk {
			p.words[g*nk+j] = tuple.KeyWord(math.Float32frombits(uint32(k >> (32 * (nk - 1 - j)))))
		}
	}
	if 4*p.n > len(p.slots) {
		p.rehash(p.n)
	}
	return int32(g)
}

// rehash sizes the slot array for n groups at most a quarter full, never
// shrinking it, and re-places every group.
func (p *Partial) rehash(n int) {
	size := 16
	for size < 4*n {
		size *= 2
	}
	if size <= len(p.slots) {
		return
	}
	old := p.slots
	p.slots = make([]slot, size)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.g == 0 {
			continue
		}
		pos := tuple.Mix(s.key, tuple.SaltTable) >> p.shift
		for p.slots[pos].g != 0 {
			pos = (pos + 1) & mask
		}
		p.slots[pos] = s
	}
}

// growState gives every group its accumulators.
func (p *Partial) growState() {
	p.accs = grown(p.accs, p.n*len(p.items))
	if p.havingOn {
		p.hav = grown(p.hav, p.n)
	}
}

// grown returns s extended to length n. A reallocation at least doubles
// the capacity, so growing a table to n groups allocates O(n) in all, and
// the first is exact: a table whose groups all arrive in its first batch
// holds no spare capacity. Elements past the old length are zero, since a
// table never shrinks.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// Finalize produces the output table (group-by attrs then one column per
// item), filtered by having and ordered by ascending group key under
// ORDER BY's rule (tuple.KeyWord: -0 and +0 are one group, all NaNs are
// one group, last). Each group's key is emitted as its tuple.KeyValue.
// having must be the one NewPartial was given: its state was folded as
// that aggregate's kind.
func (p *Partial) Finalize(having *query.Having) (*tuple.SubTable, error) {
	attrs := make([]tuple.Attr, 0, len(p.groupIdx)+len(p.items))
	for _, gi := range p.groupIdx {
		attrs = append(attrs, p.schema.Attrs[gi])
	}
	for _, it := range p.items {
		attrs = append(attrs, tuple.Attr{Name: aggColName(it), Kind: tuple.Measure})
	}
	out := tuple.NewSubTable(tuple.ID{Table: -3, Chunk: -1}, tuple.Schema{Attrs: attrs}, p.n)

	// Results are computed in group order, reading the accumulators once
	// front to back; the sorted pass gathers from that smaller table and
	// takes each key from its sorted record.
	nk, ni := len(p.groupIdx), len(p.items)
	res := make([]float32, p.n*ni)
	for g := range p.n {
		for i, it := range p.items {
			res[g*ni+i] = float32(p.accs[g*ni+i].result(it.Agg))
		}
	}
	row := make([]float32, len(attrs))
	var noHav accumulator
	recs := p.sorted()
	for at := 0; at < len(recs); at += nk + 1 {
		rec := recs[at : at+nk+1]
		g := int(rec[nk])
		hav := &noHav
		if p.havingOn {
			hav = &p.hav[g]
		}
		if having != nil && !evalHaving(having, hav) {
			continue
		}
		for j, w := range rec[:nk] {
			row[j] = keyValueOf(w)
		}
		copy(row[nk:], res[g*ni:(g+1)*ni])
		out.AppendRow(row...)
	}
	return out, nil
}

// sorted returns one (words…, g) record per group g, in ascending key-word
// order: an LSD radix sort, a byte a pass, that skips every pass whose
// byte is one value in all keys.
func (p *Partial) sorted() []uint32 {
	nk := len(p.groupIdx)
	stride := nk + 1
	recs := make([]uint32, p.n*stride)
	for g := range p.n {
		copy(recs[g*stride:], p.words[g*nk:(g+1)*nk])
		recs[g*stride+nk] = uint32(g)
	}
	tmp := make([]uint32, len(recs))
	var at [256]int
	for j := nk - 1; j >= 0 && p.n > 1; j-- {
		for shift := 0; shift < 32; shift += 8 {
			clear(at[:])
			for i := j; i < len(recs); i += stride {
				at[recs[i]>>shift&0xFF]++
			}
			if at[recs[j]>>shift&0xFF] == p.n {
				continue
			}
			sum := 0
			for d, c := range at {
				at[d] = sum
				sum += c
			}
			for i := 0; i < len(recs); i += stride {
				d := recs[i+j] >> shift & 0xFF
				to := tmp[at[d]*stride : at[d]*stride+stride]
				for k, w := range recs[i : i+stride] {
					to[k] = w
				}
				at[d]++
			}
			recs, tmp = tmp, recs
		}
	}
	return recs
}

// keyValueOf inverts tuple.KeyWord onto its class's tuple.KeyValue.
func keyValueOf(w uint32) float32 {
	switch {
	case w == ^uint32(0):
		return tuple.KeyValue(float32(math.NaN()))
	case w>>31 != 0:
		return math.Float32frombits(w &^ (1 << 31))
	}
	return math.Float32frombits(^w)
}
