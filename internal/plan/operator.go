package plan

import (
	"context"
	"fmt"
	"time"

	"sciview/internal/engine"
	"sciview/internal/scratch"
	"sciview/internal/tuple"
)

// Operator is the batch iterator one plan node executes as.
//
// Lifecycle: Open once, Next until (nil, io.EOF), Close exactly once
// (also after an error, and also when the consumer stops early — Close is
// how early termination propagates down the tree).
//
// Batch ownership: the sub-table returned by Next remains valid only
// until the next Next or Close call on the same operator; a consumer that
// retains rows must copy them out (AppendAll copies). Operators therefore
// recycle buffers freely and never share a batch with two consumers.
type Operator interface {
	Open(ctx context.Context) error
	Next() (*tuple.SubTable, error)
	Close() error
	// Schema is the static schema every emitted batch carries.
	Schema() tuple.Schema
	// Stat exposes the operator's accounting; valid any time, final
	// after Close.
	Stat() *engine.OpStat
}

// opstat is the embedded accounting every operator shares.
type opstat struct {
	s engine.OpStat
}

func (o *opstat) Stat() *engine.OpStat { return &o.s }

// observe counts one emitted batch.
func (o *opstat) observe(st *tuple.SubTable) {
	o.s.Rows += int64(st.NumRows())
	o.s.Batches++
	o.s.Bytes += int64(st.Bytes())
}

// releaseScratch records a spilling operator's scratch traffic from mgr
// and deletes its files. A nil mgr (the operator never spilled) is a no-op.
func (o *opstat) releaseScratch(mgr *scratch.Manager) {
	if mgr == nil {
		return
	}
	o.s.SpillBytes = mgr.BytesWritten()
	o.s.SpillReadBytes = mgr.BytesRead()
	o.s.SpillParts = mgr.Files()
	mgr.ReleaseAll()
}

// timed adds the elapsed time since start to the operator's busy clock;
// for operators with children this includes time spent waiting on the
// child, so the root's Busy approximates the drive time of the whole
// pipeline below it.
func (o *opstat) timed(start time.Time) {
	o.s.Busy += time.Since(start)
}

// Build constructs the operator tree for a plan. The returned slice lists
// every operator in root-first DFS order (for stats collection and
// tracing). Join input scans are descriptive and get no operator — the
// engine performs those fetches itself.
func Build(p *Plan) (Operator, []Operator, error) {
	var ops []Operator
	root, err := buildNode(p.Root, &ops)
	if err != nil {
		return nil, nil, err
	}
	return root, ops, nil
}

func buildNode(n Node, ops *[]Operator) (Operator, error) {
	switch t := n.(type) {
	case *ScanNode:
		if t.joinSide {
			return nil, fmt.Errorf("plan: join input scan %s cannot execute standalone", t.Table)
		}
		op := &scanOp{node: t}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		return op, nil
	case *JoinNode:
		op := &joinOp{node: t}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		return op, nil
	case *ProjectNode:
		op := &projectOp{node: t}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		child, err := buildNode(t.Child, ops)
		if err != nil {
			return nil, err
		}
		op.child = child
		return op, nil
	case *AggregateNode:
		op := &aggregateOp{node: t}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		child, err := buildNode(t.Child, ops)
		if err != nil {
			return nil, err
		}
		op.child = child
		return op, nil
	case *SortNode:
		op := &sortOp{node: t}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		child, err := buildNode(t.Child, ops)
		if err != nil {
			return nil, err
		}
		op.child = child
		return op, nil
	case *LimitNode:
		op := &limitOp{node: t, remaining: t.N}
		op.s.Op = t.describe()
		*ops = append(*ops, op)
		child, err := buildNode(t.Child, ops)
		if err != nil {
			return nil, err
		}
		op.child = child
		return op, nil
	default:
		return nil, fmt.Errorf("plan: unknown node type %T", n)
	}
}
