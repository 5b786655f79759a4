package plan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"sciview/internal/dds"
	"sciview/internal/query"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

// Spillable aggregation constants: partitions per split, recursion
// depth cap (a partition of one giant group cannot shrink), and the
// per-group state charge on top of the output record. The charge is a
// fixed 64 bytes, not the group table's real footprint, on purpose: it
// decides when a spilled partition is split again, so holding it still
// keeps every spill decision, and every scratch count, where it was.
const (
	aggFanout    = 8
	aggMaxDepth  = 3
	aggGroupOver = 64
)

// aggReadChunk is the read chunk a partition is replayed through. It is
// fixed, not a share of the budget: a fold that overflows stops partway
// through its partition after whole chunks, so a smaller chunk would read
// fewer scratch bytes and move a count that must stay comparable.
const aggReadChunk = 256 << 10

// aggregateOp is the blocking aggregation operator. It folds every batch
// into one dds.Partial in the order the child releases them. Below a join
// that is the reorder sink's release order, the row sequence the
// materialized path aggregates (engine.Result.Released), so every float
// sum is the same bit for bit either way, and for IJ, whose release order
// is its one-node schedule order, at any compute-node count.
//
// When the estimated group state exceeds the stamped spill budget, the
// operator runs out-of-core instead: pass 1 hash-partitions the raw rows
// by group key to scratch (scratch.Partitioner); pass 2 replays one
// partition at a time in write order into a fresh partial and finalizes
// it. Because a group's rows land wholly in one partition (the packed key
// folds -0 and NaN as the group does) in arrival order, each group's
// accumulator sees exactly the in-memory fold sequence. A partition whose
// group state still exceeds the budget is re-partitioned one split depth
// down (skew recursion) before any of it is finalized. Each finalized
// partition comes out in group-key order and is written back as a sorted
// run; the runs, whose keys are disjoint, are merged by group key with
// sort's loser tree, so the output is byte-identical at any budget while
// only one partition's groups are ever resident.
type aggregateOp struct {
	opstat
	node    *AggregateNode
	child   Operator
	started bool
	mgr     *scratch.Manager
	// merge emits the external result in sortEmitRows batches; held is
	// the bytes its read buffers hold.
	merge *runMerge
	held  int64
}

func (o *aggregateOp) Schema() tuple.Schema { return o.node.schema }

func (o *aggregateOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *aggregateOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	if !o.started {
		o.started = true
		n := o.node
		if !(n.SpillBudget > 0 && n.SpillDisk != nil && len(n.GroupBy) > 0 &&
			residentBytes(n) > n.SpillBudget) {
			return o.inMemory()
		}
		if err := o.external(); err != nil {
			return nil, err
		}
	}
	if o.merge == nil {
		return nil, io.EOF
	}
	st, err := o.merge.nextBatch(sortEmitRows)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, io.EOF
	}
	o.s.PeakBytes = max(o.s.PeakBytes, o.held+int64(st.Bytes()))
	o.observe(st)
	return st, nil
}

// inMemory folds the whole input and emits the result as one batch.
func (o *aggregateOp) inMemory() (*tuple.SubTable, error) {
	n := o.node
	p, err := dds.NewPartial(o.child.Schema(), n.Items, n.GroupBy, n.Having)
	if err != nil {
		return nil, err
	}
	for {
		st, err := o.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := p.Fold(st); err != nil {
			return nil, err
		}
	}
	out, err := p.Finalize(n.Having)
	if err != nil {
		return nil, err
	}
	// Resident at the end: the group state and the output, as external
	// charges each partition.
	o.s.PeakBytes = int64(p.Groups())*o.groupBytes() + int64(out.Bytes())
	o.observe(out)
	return out, nil
}

// groupBytes is the resident charge of one group: its output record plus
// the fixed state overhead.
func (o *aggregateOp) groupBytes() int64 {
	return int64(o.node.schema.RecordSize() + aggGroupOver)
}

func (o *aggregateOp) Close() error {
	o.releaseScratch(o.mgr)
	return o.child.Close()
}

// aggPart is one scratch partition awaiting replay: partition k of a
// split at the given depth.
type aggPart struct {
	p        *scratch.Partitioner
	k, depth int
}

// errAggOverflow stops a partition's fold once its group state passes the
// budget.
var errAggOverflow = errors.New("plan: aggregate partition over budget")

// external is the out-of-core aggregation path: it partitions the input,
// finalizes each partition to a sorted run and stages the runs' merge.
func (o *aggregateOp) external() error {
	n := o.node
	inSchema := o.child.Schema()
	groupIdxs, err := inSchema.Indexes(n.GroupBy)
	if err != nil {
		return err
	}
	o.mgr = scratch.NewManager(n.SpillDisk,
		fmt.Sprintf("plan/agg/r%d", spillSeq.Add(1)),
		n.SpillOwner, n.SpillTrace, nil)
	groupBytes := o.groupBytes()

	// Pass 1: partition raw rows by group key.
	parts, err := o.split(inSchema, groupIdxs, 0, func(add func(*tuple.SubTable) error) error {
		for {
			st, err := o.child.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := add(st); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}

	// Pass 2: replay partition by partition, splitting skewed ones, and
	// write each finalized partition as a sorted run.
	var runs []*scratch.File
	for len(parts) > 0 {
		pt := parts[0]
		parts = parts[1:]
		p, err := o.foldPartition(pt, inSchema, groupBytes)
		if err == errAggOverflow {
			// Skewed: too many groups for the budget. Nothing from this
			// partition has been finalized yet, so abandon the partial and
			// re-partition the raw rows one depth down.
			sub, err := o.split(inSchema, groupIdxs, pt.depth+1, func(add func(*tuple.SubTable) error) error {
				return pt.p.Read(pt.k, aggReadChunk, add)
			})
			if err != nil {
				return err
			}
			parts = append(parts, sub...)
			pt.p.Release(pt.k)
			continue
		}
		if err != nil {
			return err
		}
		out, err := p.Finalize(n.Having)
		if err != nil {
			return err
		}
		o.s.PeakBytes = max(o.s.PeakBytes, int64(p.Groups())*groupBytes+int64(out.Bytes()))
		pt.p.Release(pt.k)
		if out.NumRows() == 0 {
			continue
		}
		run, err := spillSortedRun(o.mgr, scratch.EncodeRows(out), out.NumRows(), len(runs))
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil
	}

	// Pass 3: merge the runs by group key, ascending.
	keys := make([]query.OrderKey, len(n.GroupBy))
	for i, g := range n.GroupBy {
		keys[i] = query.OrderKey{Attr: g}
	}
	o.merge = &runMerge{schema: n.schema, id: aggOutID, ord: newSortOrder(n.schema, keys), left: math.MaxInt}
	if o.held, err = o.merge.openRuns(runs, n.SpillBudget); err != nil {
		return err
	}
	return o.merge.start()
}

// aggOutID labels the external result's batches as dds.Partial.Finalize
// labels the in-memory one.
var aggOutID = tuple.ID{Table: -3, Chunk: -1}

// split hash-partitions the rows feed adds by group key under depth's
// salt, and returns the non-empty partitions. Every block carries tag 0,
// so a partition file replays its rows in the order they were added.
func (o *aggregateOp) split(schema tuple.Schema, groupIdxs []int, depth int,
	feed func(add func(*tuple.SubTable) error) error) ([]aggPart, error) {
	p := scratch.NewPartitioner(o.mgr, fmt.Sprintf("agg-d%d.", depth), schema, groupIdxs,
		aggFanout, tuple.SaltSplit(uint64(depth)))
	err := feed(func(st *tuple.SubTable) error { return p.Add(0, st) })
	if err == nil {
		err = p.Flush()
	}
	if err != nil {
		return nil, err
	}
	var parts []aggPart
	for k := range aggFanout {
		if p.Rows(k) > 0 {
			parts = append(parts, aggPart{p: p, k: k, depth: depth})
		}
	}
	return parts, nil
}

// foldPartition streams one partition's blocks into a fresh partial. It
// stops with errAggOverflow as soon as the partial's group state exceeds
// the budget and the partition may still recurse.
func (o *aggregateOp) foldPartition(pt aggPart, inSchema tuple.Schema, groupBytes int64) (*dds.Partial, error) {
	n := o.node
	p, err := dds.NewPartial(inSchema, n.Items, n.GroupBy, n.Having)
	if err != nil {
		return nil, err
	}
	err = pt.p.Read(pt.k, aggReadChunk, func(st *tuple.SubTable) error {
		if err := p.Fold(st); err != nil {
			return err
		}
		if int64(p.Groups())*groupBytes > n.SpillBudget && pt.depth < aggMaxDepth {
			return errAggOverflow
		}
		return nil
	})
	return p, err
}
