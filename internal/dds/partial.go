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
// join, GH routing and the spill partitioner share), and a power-of-two
// open-addressed slot array probed by tuple.Mix(key, tuple.SaltTable)
// maps it to a group number g. Flat slices hold g's key words, one
// accumulator per item and, only under HAVING, the HAVING accumulator.
// Keys of one or two columns pack exactly; wider ones are FNV-folded and
// may collide, so a slot hit on them also compares the key words.
type Partial struct {
	schema   tuple.Schema
	items    []query.SelectItem
	groupBy  []string
	groupIdx []int
	itemIdx  []int // -1 for an item over "*"
	havingOn bool
	havIdx   int // -1 for HAVING over "*"

	// The groups.
	n     int           // groups
	shift uint          // 64 - log2(len(slots))
	slots []int32       // g+1 per slot, 0 when empty; at most half full
	keys  []uint64      // packed key of group g
	words []uint32      // key words of group g at [g*nk, (g+1)*nk)
	accs  []accumulator // item i of group g at g*len(items)+i
	hav   []accumulator // group g's HAVING state; nil without HAVING

	// Fold's scratch: the batch's packed keys and key words, and the group
	// number of each row.
	inKeys  []uint64
	inWords []uint32
	gid     []int32
}

// NewPartial prepares empty state. having may be nil; when present its
// accumulator is folded alongside (the HAVING aggregate may differ from
// every select item).
func NewPartial(schema tuple.Schema, items []query.SelectItem, groupBy []string, having *query.Having) (*Partial, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("dds: no aggregation items")
	}
	itemIdx := make([]int, len(items))
	for i, it := range items {
		if it.Star || it.Agg == query.AggNone {
			return nil, fmt.Errorf("dds: aggregation requires aggregate items, got %+v", it)
		}
		itemIdx[i] = schema.Index(it.Attr)
		if it.Attr != "*" && itemIdx[i] < 0 {
			return nil, fmt.Errorf("dds: no attribute %q to aggregate", it.Attr)
		}
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
	}
	if having != nil {
		p.havIdx = schema.Index(having.Attr)
		if having.Attr != "*" && p.havIdx < 0 {
			return nil, fmt.Errorf("dds: HAVING references unknown attribute %q", having.Attr)
		}
		p.havingOn = true
	}
	return p, nil
}

// Groups returns the number of distinct groups accumulated so far —
// the quantity out-of-core aggregation compares against its memory
// charge to detect skewed partitions.
func (p *Partial) Groups() int { return p.n }

// Fold accumulates every row of st into the partial state: one pass maps
// the rows to group numbers, then one pass per item column folds the
// column into its accumulators. A group still sees its rows in row order,
// so every float sum is what a row-at-a-time fold computes.
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
// key words, group numbers) then stays within a few tens of KiB.
const foldBlock = 2048

// fold folds the rows of st, which has p's schema.
func (p *Partial) fold(st *tuple.SubTable) {
	rows := st.NumRows()
	if len(p.groupIdx) == 0 {
		if p.n == 0 {
			p.n = 1
			p.growState()
		}
		p.gid = slices.Grow(p.gid[:0], rows)[:rows]
		clear(p.gid) // every row is group 0
	} else {
		p.inKeys = st.Keys(p.inKeys, p.groupIdx)
		nk := len(p.groupIdx)
		p.inWords = slices.Grow(p.inWords[:0], rows*nk)[:rows*nk]
		for j, ci := range p.groupIdx {
			for r, v := range st.Col(ci)[:rows] {
				p.inWords[r*nk+j] = tuple.KeyWord(v)
			}
		}
		if p.slots == nil {
			p.rehash(0)
		}
		p.lookup(p.inKeys, p.inWords)
	}
	ni := len(p.items)
	for i, c := range p.itemIdx {
		p.foldItem(p.accs[i:], ni, st, c)
	}
	if p.havingOn {
		p.foldItem(p.hav, 1, st, p.havIdx)
	}
}

// foldItem adds st's column c, row r, to accs[gid[r]*stride] for every
// row r. An aggregate over "*" (c < 0; the parser allows only COUNT(*))
// reads no column: each row adds to its group's count only.
func (p *Partial) foldItem(accs []accumulator, stride int, st *tuple.SubTable, c int) {
	if c < 0 {
		for _, g := range p.gid {
			accs[int(g)*stride].count++
		}
		return
	}
	col := st.Col(c)[:len(p.gid)]
	for r, g := range p.gid {
		accs[int(g)*stride].add(float64(col[r]))
	}
}

// lookup maps each packed key in inKeys, whose key words are inWords, to
// its group number, adding the groups the table lacks, and leaves the
// numbers in p.gid.
func (p *Partial) lookup(inKeys []uint64, inWords []uint32) {
	nk := len(p.groupIdx)
	wide := nk > 2
	gid := slices.Grow(p.gid[:0], len(inKeys))[:len(inKeys)]
	slots, keys, shift := p.slots, p.keys, p.shift
	for r, k := range inKeys {
		mask := len(slots) - 1
		for pos := int(tuple.Mix(k, tuple.SaltTable) >> shift); ; pos = (pos + 1) & mask {
			g := slots[pos] - 1
			if g < 0 {
				gid[r] = p.add(pos, k, inWords[r*nk:(r+1)*nk])
				slots, keys, shift = p.slots, p.keys, p.shift
				break
			}
			if keys[g] == k && (!wide || slices.Equal(p.words[int(g)*nk:int(g+1)*nk], inWords[r*nk:(r+1)*nk])) {
				gid[r] = g
				break
			}
		}
	}
	p.gid = gid
	p.growState()
}

// add makes key k with words w group n in slot pos and returns its number.
// Its accumulators come with the next growState.
func (p *Partial) add(pos int, k uint64, w []uint32) int32 {
	g := p.n
	p.n++
	p.slots[pos] = int32(g + 1)
	p.keys = grown(p.keys, p.n)
	p.keys[g] = k
	p.words = grown(p.words, p.n*len(w))
	copy(p.words[g*len(w):], w)
	if 2*p.n > len(p.slots) {
		p.rehash(p.n)
	}
	return int32(g)
}

// rehash sizes the slot array for n groups at most half full, never
// shrinking it, and re-places every group.
func (p *Partial) rehash(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if size <= len(p.slots) {
		return
	}
	p.slots = make([]int32, size)
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for g, k := range p.keys[:p.n] {
		pos := int(tuple.Mix(k, tuple.SaltTable) >> p.shift)
		for p.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		p.slots[pos] = int32(g + 1)
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
