package plan

import (
	"context"
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

// sortOrder is the ordering kernel. A row's place in ORDER BY's strict
// total order is (keys..., arrival): its key words — one tuple.KeyWord per
// sort key, inverted for DESC, so that unsigned order is the key order —
// then its arrival index. order radix-sorts those words for the in-memory
// sort, sorted-run generation and the top-k cut; the cut's filter
// (before) and the run merge compare them word by word. Every path reads
// the one definition of the words, so none can disagree on the order.
type sortOrder struct {
	idxs []int    // key columns, in ORDER BY order
	flip []uint32 // per key: ^0 for DESC (inverts the word), 0 for ASC

	// perm backs the row order that order returns, plus order's second
	// permutation; cols holds order's two word columns. Both are reused
	// run after run.
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

// words writes the key words of row, one record in schema order, to dst.
func (o *sortOrder) words(dst []uint32, row []float32) {
	for i, idx := range o.idxs {
		dst[i] = tuple.KeyWord(row[idx]) ^ o.flip[i]
	}
}

// before reports whether row r of st orders before the row whose key
// words are w, given that r arrived later: its words must be smaller.
// Words are compared first to last and computed only as far as they tie.
func (o *sortOrder) before(st *tuple.SubTable, r int, w []uint32) bool {
	for i, idx := range o.idxs {
		if v := tuple.KeyWord(st.Col(idx)[r]) ^ o.flip[i]; v != w[i] {
			return v < w[i]
		}
	}
	return false
}

// order returns the rows of st in (keys..., arrival) order, arrival
// being row order, as row indices in a buffer the kernel reuses on its
// next order. Input already in order (a GROUP BY's output under its own
// keys) is found by one scan and returned as it stands. Otherwise order
// is an LSD radix sort over a permutation of st's rows. Key by key, last
// first, it loads each row's word in the permutation's current order into
// a column, counts all four 8-bit digits in one pass over it (a histogram
// does not depend on the order), and makes one stable counting pass per
// digit that is not the same in every row, moving each row index together
// with its word. The permutation starts in row order and every pass is
// stable, so ties on every key stay in arrival order without arrival
// digits.
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

// topK keeps the first bound rows of the order among the rows absorbed.
// rows holds the kept rows in order, then newer candidates in arrival
// order. Once it holds 2·bound rows, cut orders it and keeps its first
// bound rows; from then on a candidate enters only if it orders before
// last, the bound-th kept row's key words. Every kept row arrived before
// every candidate and order is stable, so ordering the buffer by
// (keys..., position) orders it by (keys..., arrival): the kept rows are
// always the head of "sort everything absorbed".
type topK struct {
	ord   *sortOrder
	bound int
	full  int // 2·bound, saturated: the row count that triggers a cut
	rows  *tuple.SubTable
	last  []uint32  // the bound-th kept row's key words; nil before the first cut
	pick  []int32   // one batch's candidates that passed the filter
	tmp   []float32 // the column cut permutes through
	peak  int64     // the most bytes rows held
}

func newTopK(ord *sortOrder, bound int, rows *tuple.SubTable) *topK {
	full := math.MaxInt
	if bound <= math.MaxInt/2 {
		full = 2 * bound
	}
	return &topK{ord: ord, bound: bound, full: full, rows: rows}
}

// absorb adds st's rows that can still be among the first bound. The
// filter runs row by row against the current cut, which tightens in the
// middle of a batch whenever the buffer fills.
func (t *topK) absorb(st *tuple.SubTable) error {
	for r := 0; r < st.NumRows(); {
		room := t.full - t.rows.NumRows()
		switch {
		case t.last == nil: // before the first cut, every row enters
			m := min(st.NumRows()-r, room)
			if err := t.rows.AppendAll(st.Slice(r, r+m)); err != nil {
				return err
			}
			r += m
		case len(t.last) == 0:
			return nil // no keys: the order is arrival, and the kept rows came first
		default:
			// Nearly every row loses on its first key word alone.
			lead := st.Col(t.ord.idxs[0])[:st.NumRows()]
			flip, cut := t.ord.flip[0], t.last[0]
			t.pick = t.pick[:0]
			for ; r < len(lead); r++ {
				if w := tuple.KeyWord(lead[r]) ^ flip; w > cut || w == cut && !t.ord.before(st, r, t.last) {
					continue
				}
				if t.pick = append(t.pick, int32(r)); len(t.pick) == room {
					r++ // the buffer is full: cut before filtering on
					break
				}
			}
			t.rows.AppendGather(st, t.pick)
		}
		if t.rows.NumRows() == t.full {
			t.cut()
		}
	}
	return nil
}

// cut orders the buffer and keeps its first bound rows in place, a
// column at a time through tmp, and takes the last kept row's words as
// the new filter.
func (t *topK) cut() {
	t.peak = max(t.peak, int64(t.rows.Bytes()))
	rows := t.ord.order(t.rows)
	rows = rows[:min(len(rows), t.bound)]
	t.tmp = slices.Grow(t.tmp[:0], len(rows))[:len(rows)]
	t.rows.Reorder(rows, t.tmp)
	if len(rows) == t.bound {
		if t.last == nil {
			t.last = make([]uint32, len(t.ord.idxs))
		}
		t.ord.words(t.last, t.rows.Row(t.bound-1, nil))
	}
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
// rows of the order are ever needed (topK): the buffer is cut back to its
// first k rows whenever it reaches 2k, and a later row enters only if it
// orders before the k-th kept row. Resident memory is at most 2k rows,
// not the input, and the last cut's buffer is the result.
//
// With a spill budget stamped (SortNode.SpillBudget > 0), absorption is
// bounded: whenever the buffer exceeds the budget it is sorted and
// written to the scratch disk as one sorted run and a loser tree merges
// the runs, breaking key ties by run index: runs are cut in arrival order,
// so an earlier run's rows arrived first. The order is total, so
// the output is byte-identical to the in-memory path wherever the run
// boundaries fell; only the batch boundaries differ (bounded emission
// instead of one monolithic batch). A bounded sort whose k rows fit the
// budget share runs topK and never touches scratch; one whose k rows
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
	// held is what stays resident beside the emitted batch: the absorbed
	// rows a gathered result copies, plus the merge's read buffers when
	// runs spilled. A top-k result is the absorbed rows themselves.
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
	acc := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, schema, 0)
	// topK keeps bound rows between cuts, so it may run whenever that many
	// fit the budget share (always, without a budget) — and then nothing
	// can spill.
	var top *topK
	if node.Bound > 0 && (!budgeted || int64(bound) <= node.SpillBudget/int64(schema.RecordSize())) {
		top = newTopK(ord, bound, acc)
	}
	spilling := budgeted && top == nil

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
		if top != nil {
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
			rows = rows[:min(len(rows), bound)]
			run, err := spillSortedRun(o.mgr, scratch.EncodeRowsAt(acc, rows), len(rows), len(runs))
			if err != nil {
				return err
			}
			runs = append(runs, run)
			acc = tuple.NewSubTable(acc.ID, schema, 0)
		}
	}

	if top != nil {
		// The last cut leaves the result in the buffer itself.
		top.cut()
		o.s.PeakBytes = max(o.s.PeakBytes, top.peak)
		o.out = acc
		return nil
	}
	rows := ord.order(acc)
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
	m := &runMerge{schema: schema, id: acc.ID, ord: ord, left: bound}
	bufs, err := m.openRuns(runs, node.SpillBudget)
	if err != nil {
		return err
	}
	o.held += bufs
	if len(rows) > 0 {
		m.curs = append(m.curs, m.cursor(&runCursor{acc: acc, rows: rows}))
	}
	o.merge = m
	return m.start()
}

func (o *sortOp) Close() error {
	o.releaseScratch(o.mgr)
	return o.child.Close()
}

// ---------------------------------------------------------------------
// External merge

// spillSortedRun writes data, rows records in scratch.EncodeRows' layout,
// as run n, and releases data.
func spillSortedRun(mgr *scratch.Manager, data []byte, rows, n int) (*scratch.File, error) {
	f := mgr.Create(fmt.Sprintf("run%d", n))
	err := f.AppendRows(data, int64(rows))
	tuple.PutBuf(data)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// runCursor walks one sorted run: a scratch file (rd != nil) or the
// in-memory tail buffer (acc != nil). row holds the current record and
// key its key words.
type runCursor struct {
	// Disk run.
	rd *scratch.Reader
	// In-memory tail: acc's rows, in sorted order.
	acc  *tuple.SubTable
	rows []int32
	pos  int

	row []float32
	key []uint32
	ok  bool
}

// advance loads the cursor's next record and its key words; ok=false at
// run end.
func (c *runCursor) advance(ord *sortOrder) error {
	if c.acc != nil {
		if c.pos >= len(c.rows) {
			c.ok = false
			return nil
		}
		c.acc.Row(int(c.rows[c.pos]), c.row)
		c.pos++
	} else if err := c.rd.ReadRecord(c.row); err == io.EOF {
		c.rd.Close()
		c.ok = false
		return nil
	} else if err != nil {
		return fmt.Errorf("plan: sort run read: %w", err)
	}
	ord.words(c.key, c.row)
	c.ok = true
	return nil
}

// mergeFloor is the smallest read chunk a merge gives one run.
const mergeFloor = 4 << 10

// openRuns adds a cursor over each spilled run, in order. The runs share
// the operator's budget as read buffer, max(mergeFloor, budget/len(runs))
// bytes each; openRuns returns the bytes those buffers hold, a run shorter
// than its chunk holding only itself.
func (m *runMerge) openRuns(runs []*scratch.File, budget int64) (int64, error) {
	chunk := max(mergeFloor, budget/int64(len(runs)))
	var held int64
	for _, run := range runs {
		rd, err := run.Open(chunk)
		if err != nil {
			return 0, err
		}
		held += min(chunk, run.Size())
		m.curs = append(m.curs, m.cursor(&runCursor{rd: rd}))
	}
	return held, nil
}

// runMerge merges sorted runs with a loser tree over the cursors'
// current key words.
type runMerge struct {
	schema tuple.Schema
	id     tuple.ID
	ord    *sortOrder
	curs   []*runCursor
	lt     *loserTree
	left   int // rows still to emit (a bounded sort stops after Bound)
}

// cursor sizes c's record and key buffers for the merge.
func (m *runMerge) cursor(c *runCursor) *runCursor {
	c.row = make([]float32, m.schema.NumAttrs())
	c.key = make([]uint32, len(m.ord.idxs))
	return c
}

// start primes every cursor and builds the loser tree. A cursor's rows
// are in (keys..., arrival) order, and every row of an earlier cursor
// arrived before every row of a later one, so rows whose key words tie go
// to the lower cursor index.
func (m *runMerge) start() error {
	for _, c := range m.curs {
		if err := c.advance(m.ord); err != nil {
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
		if c := slices.Compare(ca.key, cb.key); c != 0 {
			return c < 0
		}
		return a < b
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
		if err := m.curs[w].advance(m.ord); err != nil {
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
