package plan

import (
	"context"
	"io"
	"time"

	"sciview/internal/tuple"
)

// projectOp narrows each batch to the named columns (shares the column
// storage — no copy).
type projectOp struct {
	opstat
	node  *ProjectNode
	child Operator
}

func (o *projectOp) Schema() tuple.Schema { return o.node.schema }

func (o *projectOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *projectOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	st, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	out, err := st.Project(o.node.Names)
	if err != nil {
		return nil, err
	}
	o.observe(out)
	return out, nil
}

func (o *projectOp) Close() error { return o.child.Close() }

// limitOp truncates the stream after N rows and stops pulling from the
// child — the driver's subsequent Close cancels whatever the subtree
// still had in flight.
type limitOp struct {
	opstat
	node      *LimitNode
	child     Operator
	remaining int
}

func (o *limitOp) Schema() tuple.Schema { return o.node.Schema() }

func (o *limitOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *limitOp) Next() (*tuple.SubTable, error) {
	start := time.Now()
	defer o.timed(start)
	if o.remaining <= 0 {
		return nil, io.EOF
	}
	st, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	if st.NumRows() > o.remaining {
		st = st.Head(o.remaining)
	}
	o.remaining -= st.NumRows()
	o.observe(st)
	return st, nil
}

func (o *limitOp) Close() error { return o.child.Close() }
