package plan

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/tuple"
)

// joinOp runs the chosen engine with a streaming sink: the engine's
// per-slot (IJ) or per-group (GH) goroutines emit one batch per edge or
// bucket pair, and the reorder sink releases them downstream one schedule
// unit at a time, round-robin over the parts — the order
// engine.Result.Released gives a collected run — so the streamed row
// sequence is byte-identical to the materialized one at any worker count,
// prefetch depth or GOMAXPROCS.
//
// Close before EOF is the early-exit path: it cancels the engine context
// (stopping slots through the existing cancel/prefetch-reap machinery),
// unblocks producers parked in the sink, waits for the run goroutine and
// synthesizes a Result carrying the schedule fraction actually joined.
type joinOp struct {
	opstat
	node     *JoinNode
	sink     *reorder
	cancel   context.CancelFunc
	unwatch  func() bool
	resCh    chan engineOutcome
	progress *engine.Progress
	opened   time.Time
	before   cluster.Account // the cluster's counters when the join opened
	res      *engine.Result
}

type engineOutcome struct {
	res *engine.Result
	err error
}

func (o *joinOp) Schema() tuple.Schema { return o.node.In.OutSchema }

func (o *joinOp) Open(ctx context.Context) error {
	jctx, cancel := context.WithCancel(ctx)
	o.cancel = cancel
	// Under fault injection the engines may discard and replay a part's
	// output; commit-on-Done buffering keeps replays invisible downstream
	// at the price of an unbounded per-part buffer. Without fault
	// injection parts are never discarded, so every part streams through a
	// bounded buffer.
	o.sink = newReorder(o.node.Parts, o.node.Cluster.Config.Faults != nil)
	o.progress = &engine.Progress{}
	// This execution's copy of the inputs: the sink and progress counters
	// are per run, the resolution (and its graph) is the plan's.
	in := *o.node.In
	in.Req.Collect = false
	in.Req.Sink = o.sink
	in.Req.Progress = o.progress
	o.resCh = make(chan engineOutcome, 1)
	o.before = o.node.Cluster.Account()
	o.opened = time.Now()
	// A cancel from above must reach the sink itself, not only the engine:
	// a joiner that sees ctx.Err() returns without Done, so the consumer
	// and any producer parked behind the buffer bound would otherwise wait
	// on each other while the engine waits on that producer.
	o.unwatch = context.AfterFunc(jctx, func() { o.sink.close(jctx.Err()) })
	go func() {
		res, err := o.node.Eng.Run(jctx, o.node.Cluster, &in)
		o.sink.finish(err)
		o.resCh <- engineOutcome{res, err}
	}()
	return nil
}

func (o *joinOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	st, err := o.sink.next()
	if err != nil {
		return nil, err
	}
	o.observe(st)
	return st, nil
}

func (o *joinOp) Close() error {
	if o.cancel == nil {
		return nil
	}
	earlyExit := !o.sink.isFinished()
	o.unwatch()
	o.cancel()
	o.sink.close(nil)
	oc := <-o.resCh
	o.cancel = nil
	o.s.PeakBytes = o.sink.peak()
	switch {
	case oc.err == nil:
		o.res = oc.res
		if o.res != nil {
			// The engines bill every scratch write/read (GH's bucket
			// partitioning and any budget-forced build-side round-trips)
			// through their observation collectors.
			o.s.SpillBytes = o.res.Observed.SpillWriteBytes
			o.s.SpillReadBytes = o.res.Observed.SpillReadBytes
		}
	case earlyExit:
		// The consumer stopped first (LIMIT satisfied); the cancellation
		// error is ours. Report what the truncated run did execute: the
		// counters' movement since the join opened.
		acct := o.node.Cluster.Account().Sub(o.before)
		o.res = &engine.Result{
			Engine:      o.node.Eng.Name(),
			Tuples:      o.s.Rows,
			Elapsed:     time.Since(o.opened),
			Cache:       acct.Cache,
			Traffic:     acct.Traffic,
			Health:      acct.Health,
			UnitsJoined: o.progress.Joined.Load(),
			UnitsTotal:  o.progress.Total.Load(),
			Phases:      map[string]time.Duration{},
		}
	}
	// A genuine engine error already surfaced through Next; Close stays
	// clean so the driver reports the original error once.
	return nil
}

// result is the engine result after Close: the real one for completed
// runs, a synthesized one for early exits, nil when the run failed.
func (o *joinOp) result() *engine.Result { return o.res }

// errSinkClosed aborts producers once the consumer has gone away.
var errSinkClosed = errors.New("plan: result consumer closed")

// reorder is the engine.Sink that restores deterministic output order:
// batches arrive concurrently from per-part producer goroutines and are
// released to the single consumer in the engine.Sink release order — the
// batches of unit 0 of every part in part order, then unit 1 of every
// part, and so on, a part dropping out of the rotation once it is done and
// drained. Because the consumer takes one unit from each part in turn,
// every part advances while it drains, so all joiners run side by side.
//
// Two modes:
//
//   - streaming (committed=false): a part's batches are consumable as
//     soon as they arrive; a producer blocks once maxBufferedBatches of
//     its batches wait unreleased, bounding resident memory and keeping
//     every part within that many batches of the consumer's rotation. Used
//     when no fault injection is configured, so parts are never discarded.
//
//   - commit-on-Done (committed=true): a part's batches are held back
//     until the part's final attempt succeeds (Done), and a failed
//     attempt's Discard drops them, keeping fault-tolerant replays
//     byte-invisible. Emit never blocks in this mode.
//
// Batches are recycled (engine.Sink.Free): the batch next lent the
// consumer becomes free on the following next, as the Operator contract
// allows, and so do a discarded attempt's batches and those still pending
// when the sink closes. The free list keeps at most as many batches as a
// streaming run can have in flight at once (maxFree); a committed run,
// which holds a part's whole output until Done, lets the rest go. Free
// batches are not in curBytes or peakBytes.
type reorder struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pending   [][]unitBatch // each part's unreleased batches, in emission order
	done      []bool
	head      int // the part whose turn it is
	committed bool
	closed    bool
	finished  bool
	runErr    error
	curBytes  int64
	peakBytes int64
	lent      *tuple.SubTable   // the batch next returned last
	free      []*tuple.SubTable // batches the engine may refill
	maxFree   int
}

// unitBatch is one emitted batch (nil: no rows) and whether it ends its
// schedule unit.
type unitBatch struct {
	st   *tuple.SubTable
	last bool
}

func newReorder(parts int, committed bool) *reorder {
	r := &reorder{
		pending:   make([][]unitBatch, parts),
		done:      make([]bool, parts),
		committed: committed,
		// Each part holds the batch it fills, one it is emitting and at
		// most maxBufferedBatches pending; the consumer one more.
		maxFree: parts*(maxBufferedBatches+2) + 1,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Emit implements engine.Sink.
func (r *reorder) Emit(part int, st *tuple.SubTable, last bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.committed {
		for !r.closed && len(r.pending[part]) >= maxBufferedBatches {
			r.cond.Wait()
		}
	}
	if r.closed {
		return errSinkClosed
	}
	r.pending[part] = append(r.pending[part], unitBatch{st, last})
	if st != nil {
		r.curBytes += int64(st.Bytes())
		r.peakBytes = max(r.peakBytes, r.curBytes)
	}
	r.cond.Broadcast()
	return nil
}

// Done implements engine.Sink: part's final attempt completed.
func (r *reorder) Done(part int) {
	r.mu.Lock()
	r.done[part] = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Discard implements engine.Sink: a failed attempt's batches are dropped
// before the part replays.
func (r *reorder) Discard(part int) {
	r.mu.Lock()
	r.drop(part)
	r.done[part] = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// finish marks the engine run complete (err non-nil on failure); the
// consumer drains remaining released batches and then sees EOF or err.
func (r *reorder) finish(err error) {
	r.mu.Lock()
	r.finished = true
	if r.runErr == nil {
		r.runErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Free implements engine.Sink: it hands out a batch no one reads any
// more, or nil.
func (r *reorder) Free() *tuple.SubTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.free)
	if n == 0 {
		return nil
	}
	st := r.free[n-1]
	r.free[n-1] = nil
	r.free = r.free[:n-1]
	return st
}

// drop frees part's pending batches.
func (r *reorder) drop(part int) {
	for _, b := range r.pending[part] {
		if b.st != nil {
			r.curBytes -= int64(b.st.Bytes())
			r.recycle(b.st)
		}
	}
	r.pending[part] = nil
}

// recycle makes st free, or leaves it to the garbage collector once the
// free list is full. Under the race detector it first overwrites st's
// rows with NaN, so an operator that reads a batch after its next Next
// reads NaN and fails the goldens.
func (r *reorder) recycle(st *tuple.SubTable) {
	if poisonFreed {
		nan := float32(math.NaN())
		for c := range st.Schema.Attrs {
			col := st.Col(c)
			for i := range col {
				col[i] = nan
			}
		}
	}
	if len(r.free) < r.maxFree {
		r.free = append(r.free, st)
	}
}

// close detaches the consumer: producers parked in, or arriving at, Emit
// abort with errSinkClosed, so the engine run unwinds, and the batches
// they left pending become free. A non-nil err (the join context was
// cancelled from outside) also ends the stream for a consumer still
// waiting in next. The batch lent last stays lent: a consumer whose
// context was cancelled may still be reading it.
func (r *reorder) close(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	for p := range r.pending {
		r.drop(p)
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *reorder) isFinished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

func (r *reorder) peak() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakBytes
}

// next blocks until the next batch in release order that has rows is
// available, the stream ends (io.EOF) or the run fails.
func (r *reorder) next() (*tuple.SubTable, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lent != nil {
		r.recycle(r.lent)
		r.lent = nil
	}
	for {
		if r.runErr != nil {
			return nil, r.runErr
		}
		p, ok := r.turn()
		if !ok {
			if r.finished {
				return nil, io.EOF
			}
			r.cond.Wait()
			continue
		}
		q := r.pending[p]
		if len(q) == 0 || (r.committed && !r.done[p]) {
			r.cond.Wait()
			continue
		}
		b := q[0]
		q[0] = unitBatch{}
		r.pending[p] = q[1:]
		if b.last {
			r.head = (p + 1) % len(r.pending)
		}
		r.cond.Broadcast()
		if b.st != nil {
			r.curBytes -= int64(b.st.Bytes())
			r.lent = b.st
			return b.st, nil
		}
	}
}

// turn returns the part whose batch is released next: head while its unit
// is open, else the first part from head on that still has batches to
// come. ok is false once every part is done and drained.
func (r *reorder) turn() (part int, ok bool) {
	n := len(r.pending)
	for d := range n {
		p := (r.head + d) % n
		if !r.done[p] || len(r.pending[p]) > 0 {
			return p, true
		}
	}
	return 0, false
}
