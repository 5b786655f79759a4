package plan

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"sciview/internal/query"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

// spillSeq namespaces plan-operator scratch prefixes, so concurrent
// queries sharing a compute node's scratch disk never collide.
var spillSeq atomic.Int64

// sortEmitRows is the external merge's output batch size.
const sortEmitRows = 4096

// ---------------------------------------------------------------------
// Ordering kernel

// sortInline is the number of key words a sortKey carries in place; the
// words of any further keys live in the sortOrder's over arena.
const sortInline = 4

// sortKey is one row's position in ORDER BY's strict total order
// (keys..., arrival index): one normalized word per sort key, then the
// row's arrival index — the tiebreaker that makes any sort over sortKeys
// reproduce a stable sort of the arrival-ordered input. slot says where
// the row itself lives in its owner's storage (buffer row, merge cursor).
type sortKey struct {
	w    [sortInline]uint32
	arr  int64
	slot int32
}

// sortOrder is the ordering kernel: it encodes rows into sortKeys and is
// the one place two rows are compared. The in-memory sort, sorted-run
// generation, the top-k heap and the run merge all go through it, so
// they cannot disagree on the order: the first two radix-sort on the
// very words compare reads (order).
type sortOrder struct {
	idxs []int    // key columns, in ORDER BY order
	flip []uint32 // per key: ^0 for DESC (inverts the word), 0 for ASC
	// over holds the words of keys past the inline ones, len(idxs)-sortInline
	// per slot; nil for the common case of at most sortInline keys.
	over []uint32

	// keys backs keysOf's result; perm backs the row order that order
	// and sorted return, plus order's second permutation; cols holds
	// order's two word columns. All are reused run after run.
	keys []sortKey
	perm []int32
	cols []uint32
}

func newSortOrder(schema tuple.Schema, keys []query.OrderKey) *sortOrder {
	o := &sortOrder{idxs: make([]int, len(keys)), flip: make([]uint32, len(keys))}
	for i, k := range keys {
		o.idxs[i] = schema.Index(k.Attr) // validated at NewSort
		if k.Desc {
			o.flip[i] = ^uint32(0)
		}
	}
	return o
}

// extra is the number of over-arena words per slot.
func (o *sortOrder) extra() int { return max(len(o.idxs)-sortInline, 0) }

// reserve sizes the over arena for slots [0, n).
func (o *sortOrder) reserve(n int) {
	if need := n * o.extra(); need > len(o.over) {
		o.over = append(o.over, make([]uint32, need-len(o.over))...)
	}
}

// put stores key i's word for value v into k (or k's over-arena slot).
func (o *sortOrder) put(k *sortKey, i int, v float32) {
	w := tuple.KeyWord(v) ^ o.flip[i]
	if i < sortInline {
		k.w[i] = w
		return
	}
	o.over[int(k.slot)*o.extra()+i-sortInline] = w
}

// keysOf encodes every row of st: row r gets slot r and arrival r.
// Encoding runs column by column over the key columns only. The keys live
// in the kernel's buffer until its next keysOf.
func (o *sortOrder) keysOf(st *tuple.SubTable) []sortKey {
	if cap(o.keys) < st.NumRows() {
		o.keys = make([]sortKey, st.NumRows())
	}
	keys := o.keys[:st.NumRows()]
	o.reserve(len(keys))
	for r := range keys {
		keys[r].arr, keys[r].slot = int64(r), int32(r)
	}
	for i, idx := range o.idxs {
		for r, v := range st.Col(idx) {
			o.put(&keys[r], i, v)
		}
	}
	return keys
}

// keyOf encodes one row-major record into the given slot.
func (o *sortOrder) keyOf(row []float32, slot int, arr int64) sortKey {
	k := sortKey{arr: arr, slot: int32(slot)}
	o.reserve(slot + 1)
	for i, idx := range o.idxs {
		o.put(&k, i, row[idx])
	}
	return k
}

// moveSlot copies the over-arena words of slot src to slot dst.
func (o *sortOrder) moveSlot(dst, src int) {
	if n := o.extra(); n > 0 {
		copy(o.over[dst*n:][:n], o.over[src*n:][:n])
	}
}

// compare orders two keys of the same slot space by (keys..., arrival).
// Unused inline words are zero on both sides and fall through.
func (o *sortOrder) compare(a, b *sortKey) int {
	for i := range a.w {
		if c := cmp.Compare(a.w[i], b.w[i]); c != 0 {
			return c
		}
	}
	if n := o.extra(); n > 0 {
		wa, wb := o.over[int(a.slot)*n:][:n], o.over[int(b.slot)*n:][:n]
		for i := range wa {
			if c := cmp.Compare(wa[i], wb[i]); c != 0 {
				return c
			}
		}
	}
	return cmp.Compare(a.arr, b.arr)
}

// order returns the rows of st in (keys..., arrival) order, arrival
// being row order, as row indices in a buffer the kernel reuses on its
// next order or sorted. Input already in order (a GROUP BY's output
// under its own keys) is found by one scan and returned as it stands.
// Otherwise order is an LSD radix sort over a permutation of st's rows.
// Key by key, last first, it loads each row's word — the one keysOf
// encodes — in the permutation's current order into a column, counts all
// four 8-bit digits in one pass over it (a histogram does not depend on
// the order), and makes one stable counting pass per digit that is not
// the same in every row, moving each row index together with its word.
// The permutation starts in row order and every pass is stable, so ties
// on every key stay in arrival order: exactly compare's order, with no
// arrival digits.
func (o *sortOrder) order(st *tuple.SubTable) []int32 {
	n := st.NumRows()
	done := o.inOrder(st)
	size := 2 * n // the permutation and the passes' second one
	if done {
		size = n
	}
	o.perm = slices.Grow(o.perm[:0], size)[:size]
	perm := o.perm[:n]
	for k := range perm {
		perm[k] = int32(k)
	}
	if done {
		return perm
	}
	o.cols = slices.Grow(o.cols[:0], 2*n)[:2*n]
	dperm := o.perm[n:]
	col, dcol := o.cols[:n], o.cols[n:]
	for i := len(o.idxs) - 1; i >= 0; i-- {
		src, flip := st.Col(o.idxs[i]), o.flip[i]
		for k, r := range perm {
			col[k] = tuple.KeyWord(src[r]) ^ flip
		}
		var at [4][256]int
		for _, w := range col {
			at[0][uint8(w)]++
			at[1][uint8(w>>8)]++
			at[2][uint8(w>>16)]++
			at[3][uint8(w>>24)]++
		}
		for b := range at {
			if at[b][uint8(col[0]>>(8*b))] == n {
				continue // one value in every row
			}
			pos := 0
			for d, c := range at[b] {
				at[b][d], pos = pos, pos+c
			}
			shift := 8 * b
			for k, w := range col {
				p := &at[b][uint8(w>>shift)]
				dperm[*p], dcol[*p] = perm[k], w
				*p++
			}
			perm, dperm, col, dcol = dperm, perm, dcol, col
		}
	}
	return perm
}

// sorted sorts the top-k heap's keys through compare and returns their
// slots in order, in the kernel's buffer. The heap's keys are not in
// arrival order, so order's stable passes would not break their ties;
// compare does, on the arrival index. The order is total, so the
// unstable pattern-defeating quicksort yields the stable sort's
// permutation.
func (o *sortOrder) sorted(keys []sortKey) []int32 {
	slices.SortFunc(keys, func(a, b sortKey) int { return o.compare(&a, &b) })
	o.perm = slices.Grow(o.perm[:0], len(keys))[:len(keys)]
	for i := range keys {
		o.perm[i] = keys[i].slot
	}
	return o.perm
}

// inOrder reports whether st's rows are already in (keys..., arrival)
// order, as a GROUP BY's output ordered by its own keys arrives. It
// stops at the first row out of order, so on other input it costs about
// nothing.
func (o *sortOrder) inOrder(st *tuple.SubTable) bool {
	for r := 1; r < st.NumRows(); r++ {
		for i, idx := range o.idxs {
			col := st.Col(idx)
			a, b := tuple.KeyWord(col[r-1])^o.flip[i], tuple.KeyWord(col[r])^o.flip[i]
			if a > b {
				return false
			}
			if a < b {
				break
			}
		}
	}
	return true
}

// siftDown restores the max-heap property of h below position i.
func (o *sortOrder) siftDown(h []sortKey, i int) {
	for {
		big := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if o.compare(&h[c], &h[big]) > 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// gather builds the sub-table holding acc's rows in the given order,
// one column at a time.
func gather(acc *tuple.SubTable, rows []int32) (*tuple.SubTable, error) {
	cols := make([][]float32, acc.Schema.NumAttrs())
	for c := range cols {
		src, dst := acc.Col(c), make([]float32, len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		cols[c] = dst
	}
	return tuple.FromColumns(acc.ID, acc.Schema, cols)
}

// topK keeps the first bound rows, in the kernel's order, of the rows
// absorbed so far: rows holds them (in no particular order) and, once it
// is full, heap arranges their keys as a max-heap whose root is the
// current bound-th row — the one a better row evicts.
type topK struct {
	ord   *sortOrder
	bound int
	rows  *tuple.SubTable
	heap  []sortKey
	seen  int64     // rows absorbed: the next row's arrival index
	row   []float32 // staging for one candidate row
}

func (t *topK) absorb(st *tuple.SubTable) error {
	fill := min(st.NumRows(), t.bound-t.rows.NumRows())
	if fill > 0 {
		if err := t.rows.AppendAll(st.Head(fill)); err != nil {
			return err
		}
		if t.rows.NumRows() == t.bound {
			t.heap = t.ord.keysOf(t.rows)
			for i := len(t.heap)/2 - 1; i >= 0; i-- {
				t.ord.siftDown(t.heap, i)
			}
		}
	}
	var lead []float32 // the first key's column
	var flip uint32
	if len(t.ord.idxs) > 0 {
		lead, flip = st.Col(t.ord.idxs[0]), t.ord.flip[0]
	}
	for r := fill; r < st.NumRows(); r++ {
		root := &t.heap[0]
		// Nearly every row loses on its first key alone; only the others
		// are worth copying out and encoding in full.
		if lead != nil && tuple.KeyWord(lead[r])^flip > root.w[0] {
			continue
		}
		// Slot bound, one past the kept rows', stages the candidate.
		cand := t.ord.keyOf(st.Row(r, t.row), t.bound, t.seen+int64(r))
		if t.ord.compare(&cand, root) >= 0 {
			continue
		}
		cand.slot = root.slot
		t.rows.SetRow(int(cand.slot), t.row)
		t.ord.moveSlot(int(cand.slot), t.bound)
		*root = cand
		t.ord.siftDown(t.heap, 0)
	}
	t.seen += int64(st.NumRows())
	return nil
}

// ---------------------------------------------------------------------
// Operator

// sortOp is the blocking ORDER BY operator. It absorbs the child's
// batches in arrival order — which the sources keep identical to the
// materialized path's row order — and emits them in (keys..., arrival)
// order: exactly the stable sort the materialized order-and-limit step
// applies, whichever of the paths below produced it.
//
// Unbounded and within budget, everything is buffered, sorted by the
// kernel and emitted as one batch.
//
// Bounded (SortNode.Bound = k, a LIMIT directly above), only the first k
// rows of the order are ever needed: the buffer stops growing at k rows
// and becomes a max-heap whose root is the current k-th row; a later row
// enters only by evicting the root. Resident memory is k rows, not the
// input.
//
// With a spill budget stamped (SortNode.SpillBudget > 0), absorption is
// bounded: whenever the buffer exceeds the budget it is sorted and
// written to the scratch disk as one sorted run and a loser tree merges
// the runs, breaking key ties by run index: runs are cut in arrival order,
// so an earlier run's rows arrived first. The order is total, so
// the output is byte-identical to the in-memory path wherever the run
// boundaries fell; only the batch boundaries differ (bounded emission
// instead of one monolithic batch). A bounded sort whose k rows fit the
// budget share runs the heap and never touches scratch; one whose k rows
// do not fit spills runs truncated to their first k rows and stops the
// merge after k.
type sortOp struct {
	opstat
	node    *SortNode
	child   Operator
	started bool

	out   *tuple.SubTable // in-memory result, emitted as one batch
	mgr   *scratch.Manager
	merge *runMerge // external result, emitted in sortEmitRows batches
	// held is what stays resident while the result is emitted: the
	// absorbed rows, plus the merge's read buffers when runs spilled.
	held int64
}

func (o *sortOp) Schema() tuple.Schema { return o.node.Schema() }

func (o *sortOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *sortOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	if !o.started {
		o.started = true
		if err := o.absorb(); err != nil {
			return nil, err
		}
	}
	st := o.out
	o.out = nil
	if o.merge != nil {
		var err error
		if st, err = o.merge.nextBatch(sortEmitRows); err != nil {
			return nil, err
		}
	}
	if st == nil {
		return nil, io.EOF
	}
	o.s.PeakBytes = max(o.s.PeakBytes, o.held+int64(st.Bytes()))
	o.observe(st)
	return st, nil
}

// absorb drains the child and stages the result: o.out when nothing
// spilled, o.merge over the spilled runs plus the in-memory tail
// otherwise.
func (o *sortOp) absorb() error {
	node := o.node
	schema := o.child.Schema()
	ord := newSortOrder(schema, node.Keys)
	budgeted := node.SpillBudget > 0 && node.SpillDisk != nil
	bound := math.MaxInt
	if node.Bound > 0 {
		bound = node.Bound
	}
	// The heap holds at most bound rows, so it may run whenever that many
	// fit the budget share (always, without a budget) — and then nothing
	// can spill.
	heapFits := node.Bound > 0 &&
		(!budgeted || int64(bound) <= node.SpillBudget/int64(schema.RecordSize()))
	spilling := budgeted && !heapFits

	acc := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, schema, 0)
	top := topK{ord: ord, bound: bound, rows: acc, row: make([]float32, schema.NumAttrs())}
	var runs []*scratch.File
	first := true
	for {
		st, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if first && st.NumRows() > 0 {
			acc.ID = st.ID
			first = false
		}
		if heapFits {
			err = top.absorb(st)
		} else {
			err = acc.AppendAll(st)
		}
		if err != nil {
			return err
		}
		o.s.PeakBytes = max(o.s.PeakBytes, int64(acc.Bytes()))
		if spilling && int64(acc.Bytes()) > node.SpillBudget && acc.NumRows() > 0 {
			if o.mgr == nil {
				o.mgr = scratch.NewManager(node.SpillDisk,
					fmt.Sprintf("plan/sort/r%d", spillSeq.Add(1)),
					node.SpillOwner, node.SpillTrace, nil)
			}
			rows := ord.order(acc)
			run, err := spillSortedRun(o.mgr, acc, rows[:min(len(rows), bound)], len(runs))
			if err != nil {
				return err
			}
			runs = append(runs, run)
			acc = tuple.NewSubTable(acc.ID, schema, 0)
		}
	}

	var rows []int32
	if top.heap != nil {
		rows = ord.sorted(top.heap)
	} else {
		rows = ord.order(acc)
	}
	rows = rows[:min(len(rows), bound)]
	o.held = int64(acc.Bytes())
	if len(runs) == 0 {
		out, err := gather(acc, rows)
		if err != nil {
			return err
		}
		o.out = out
		return nil
	}
	// External merge: the spilled runs in arrival order, then the
	// in-memory tail.
	m := &runMerge{schema: schema, id: acc.ID, ord: newSortOrder(schema, node.Keys), left: bound}
	bufs, err := m.openRuns(runs, node.SpillBudget)
	if err != nil {
		return err
	}
	o.held += bufs
	if len(rows) > 0 {
		m.curs = append(m.curs, &runCursor{
			acc: acc, rows: rows,
			row: make([]float32, schema.NumAttrs()),
		})
	}
	o.merge = m
	return m.start()
}

func (o *sortOp) Close() error {
	if o.mgr != nil {
		o.s.SpillBytes = o.mgr.BytesWritten()
		o.s.SpillReadBytes = o.mgr.BytesRead()
		o.s.SpillParts = o.mgr.Files()
		o.mgr.ReleaseAll()
	}
	return o.child.Close()
}

// ---------------------------------------------------------------------
// External merge

// spillSortedRun writes acc's rows in the given order as run n, each
// record in scratch.EncodeRows' row layout.
func spillSortedRun(mgr *scratch.Manager, acc *tuple.SubTable, rows []int32, n int) (*scratch.File, error) {
	rec := acc.Schema.RecordSize()
	size := len(rows) * rec
	buf := tuple.GetBuf(size)[:size]
	for c := range acc.Schema.NumAttrs() {
		col := acc.Col(c)
		for i, r := range rows {
			binary.LittleEndian.PutUint32(buf[i*rec+c*4:], math.Float32bits(col[r]))
		}
	}
	f := mgr.Create(fmt.Sprintf("run%d", n))
	err := f.AppendRows(buf, int64(len(rows)))
	tuple.PutBuf(buf)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// runCursor walks one sorted run: a scratch file (rd != nil) or the
// in-memory tail buffer (acc != nil). row/key hold the current record.
type runCursor struct {
	// Disk run.
	rd  *scratch.Reader
	buf []byte
	// In-memory tail: acc's rows, in sorted order.
	acc  *tuple.SubTable
	rows []int32
	pos  int

	row []float32
	key sortKey
	ok  bool
}

// advance loads the cursor's next record and encodes its key into the
// merge's slot space, the cursor index standing in for the arrival index:
// rows of one run are already in (keys, arrival) order, and every row of
// an earlier cursor arrived before every row of a later one. ok=false at
// run end.
func (c *runCursor) advance(ord *sortOrder, slot int) error {
	if c.acc != nil {
		if c.pos >= len(c.rows) {
			c.ok = false
			return nil
		}
		c.acc.Row(int(c.rows[c.pos]), c.row)
		c.pos++
	} else {
		if _, err := io.ReadFull(c.rd, c.buf); err != nil {
			if err == io.EOF {
				c.rd.Close()
				c.ok = false
				return nil
			}
			return fmt.Errorf("plan: sort run read: %w", err)
		}
		for i := range c.row {
			c.row[i] = math.Float32frombits(binary.LittleEndian.Uint32(c.buf[i*4:]))
		}
	}
	c.key = ord.keyOf(c.row, slot, int64(slot))
	c.ok = true
	return nil
}

// mergeFloor is the smallest read chunk a merge gives one run.
const mergeFloor = 4 << 10

// openRuns adds a cursor over each spilled run, in order. The runs share
// the operator's budget as read buffer, max(mergeFloor, budget/len(runs))
// bytes each; openRuns returns the bytes those buffers hold, a run
// shorter than its chunk holding only itself.
func (m *runMerge) openRuns(runs []*scratch.File, budget int64) (int64, error) {
	chunk := max(mergeFloor, budget/int64(len(runs)))
	var held int64
	for _, run := range runs {
		rd, err := run.Open(chunk)
		if err != nil {
			return 0, err
		}
		held += min(chunk, run.Size())
		m.curs = append(m.curs, &runCursor{
			rd:  rd,
			buf: make([]byte, m.schema.RecordSize()),
			row: make([]float32, m.schema.NumAttrs()),
		})
	}
	return held, nil
}

// runMerge merges sorted runs with a loser tree over the cursors'
// current keys. ord is the merge's own kernel instance: its slots are
// cursor indexes.
type runMerge struct {
	schema tuple.Schema
	id     tuple.ID
	ord    *sortOrder
	curs   []*runCursor
	lt     *loserTree
	left   int // rows still to emit (a bounded sort stops after Bound)
}

// start primes every cursor and builds the loser tree.
func (m *runMerge) start() error {
	for i, c := range m.curs {
		if err := c.advance(m.ord, i); err != nil {
			return err
		}
	}
	m.lt = newLoserTree(len(m.curs), func(a, b int) bool {
		ca, cb := m.curs[a], m.curs[b]
		if !ca.ok {
			return false
		}
		if !cb.ok {
			return true
		}
		return m.ord.compare(&ca.key, &cb.key) < 0
	})
	return nil
}

// nextBatch emits up to n merged rows; nil at end of stream.
func (m *runMerge) nextBatch(n int) (*tuple.SubTable, error) {
	n = min(n, m.left)
	if n == 0 {
		return nil, nil
	}
	out := tuple.NewSubTable(m.id, m.schema, n)
	for out.NumRows() < n {
		w := m.lt.winner
		if w < 0 || !m.curs[w].ok {
			m.left = out.NumRows()
			break
		}
		out.AppendRow(m.curs[w].row...)
		if err := m.curs[w].advance(m.ord, w); err != nil {
			return nil, err
		}
		m.lt.fix()
	}
	m.left -= out.NumRows()
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}

// loserTree is a k-way tournament tree over cursor indices: winner is
// the index of the smallest loaded cursor, internal nodes remember the
// loser of each match so replacing the winner replays one root path
// instead of k-1 comparisons. beats(a, b) reports cursor a ordering
// strictly before cursor b (exhausted cursors lose to everything).
type loserTree struct {
	m      int // leaf count, power of two
	k      int
	lose   []int
	winner int
	beats  func(a, b int) bool
}

func newLoserTree(k int, beats func(a, b int) bool) *loserTree {
	m := 1
	for m < k {
		m *= 2
	}
	lt := &loserTree{m: m, k: k, lose: make([]int, m), beats: beats}
	win := make([]int, 2*m)
	for i := 0; i < m; i++ {
		if i < k {
			win[m+i] = i
		} else {
			win[m+i] = -1
		}
	}
	for node := m - 1; node >= 1; node-- {
		a, b := win[2*node], win[2*node+1]
		w, l := lt.pick(a, b)
		win[node], lt.lose[node] = w, l
	}
	lt.winner = win[1]
	return lt
}

// pick returns (winner, loser) of a match; -1 always loses.
func (lt *loserTree) pick(a, b int) (int, int) {
	if a < 0 {
		return b, a
	}
	if b < 0 {
		return a, b
	}
	if lt.beats(b, a) {
		return b, a
	}
	return a, b
}

// fix replays the winner's root path after its cursor advanced (the
// cursor may now be exhausted; beats handles that as an automatic
// loss).
func (lt *loserTree) fix() {
	w := lt.winner
	if w < 0 {
		return
	}
	cur := w
	for node := (lt.m + w) / 2; node >= 1; node /= 2 {
		winner, loser := lt.pick(cur, lt.lose[node])
		cur, lt.lose[node] = winner, loser
	}
	lt.winner = cur
}
