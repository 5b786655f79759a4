package plan

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// tableOp yields one table as one batch.
type tableOp struct {
	opstat
	st   *tuple.SubTable
	done bool
}

func (o *tableOp) Open(context.Context) error { return nil }
func (o *tableOp) Close() error               { return nil }
func (o *tableOp) Schema() tuple.Schema       { return o.st.Schema }
func (o *tableOp) Next() (*tuple.SubTable, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	return o.st, nil
}

// spyOp counts the batches its child lends and how many distinct tables
// they were.
type spyOp struct {
	Operator
	batches int
	tables  map[*tuple.SubTable]bool
}

func (o *spyOp) Next() (*tuple.SubTable, error) {
	st, err := o.Operator.Next()
	if err == nil {
		o.batches++
		o.tables[st] = true
	}
	return st, err
}

// opsOver builds n's operator tree with src standing in for its join.
func opsOver(n Node, src Operator) Operator {
	switch t := n.(type) {
	case *JoinNode:
		return src
	case *ProjectNode:
		return &projectOp{node: t, child: opsOver(t.Child, src)}
	case *LimitNode:
		return &limitOp{node: t, remaining: t.N, child: opsOver(t.Child, src)}
	case *SortNode:
		return &sortOp{node: t, child: opsOver(t.Child, src)}
	case *AggregateNode:
		return &aggregateOp{node: t, child: opsOver(t.Child, src)}
	}
	panic(fmt.Sprintf("opsOver: %T", n))
}

// drain runs root to EOF as Run does, copying every batch out.
func drain(t *testing.T, root Operator) *tuple.SubTable {
	t.Helper()
	if err := root.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, root.Schema(), 0)
	for {
		st, err := root.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := out.AppendAll(st); err != nil {
			t.Fatal(err)
		}
	}
}

func sameBits(a, b *tuple.SubTable) error {
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d rows of %v, want %d rows of %v", a.NumRows(), a.Schema, b.NumRows(), b.Schema)
	}
	for c := range a.Schema.Attrs {
		for r := 0; r < a.NumRows(); r++ {
			if math.Float32bits(a.Value(r, c)) != math.Float32bits(b.Value(r, c)) {
				return fmt.Errorf("row %d col %d = %v, want %v", r, c, a.Value(r, c), b.Value(r, c))
			}
		}
	}
	return nil
}

// TestRecycledJoinMatchesCollect drains a streaming join — whose sink
// hands the engine back every batch the consumer is done with — through
// Project, Limit, Sort and Aggregate over a range-filtered view, and
// checks each result against the same operators over a collecting run of
// the same inputs, bit for bit. Under the race detector every recycled
// batch is overwritten with NaN, so an operator that keeps reading a
// batch past its next Next fails here.
func TestRecycledJoinMatchesCollect(t *testing.T) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(16, 16, 8), LeftPart: partition.D(4, 4, 4), RightPart: partition.D(4, 4, 2),
		StorageNodes: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 32 << 20}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name  string
		build func(join Node) (Node, error)
	}{
		{"limit(project)", func(j Node) (Node, error) {
			p, err := NewProject(j, []string{"x", "oilp", "wp"})
			return NewLimit(p, 700), err
		}},
		{"sort", func(j Node) (Node, error) {
			return NewSort(j, []query.OrderKey{{Attr: "wp", Desc: true}, {Attr: "x"}, {Attr: "y"}, {Attr: "z"}})
		}},
		{"limit(sort)", func(j Node) (Node, error) {
			s, err := NewSort(j, []query.OrderKey{{Attr: "oilp"}, {Attr: "x"}, {Attr: "y"}, {Attr: "z"}})
			return NewLimit(s, 50), err
		}},
		{"aggregate", func(j Node) (Node, error) {
			return NewAggregate(j, []query.SelectItem{{Agg: query.AggCount, Attr: "*"},
				{Agg: query.AggSum, Attr: "oilp"}, {Agg: query.AggAvg, Attr: "wp"}}, []string{"x"}, nil)
		}},
	}
	for _, eng := range []engine.Engine{ij.New(), gh.New()} {
		in, err := engine.Resolve(ds.Catalog, engine.Request{
			LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
			Filter: metadata.Range{Attrs: []string{"x", "z"}, Lo: []float64{2, 1}, Hi: []float64{13, 6}},
			Shared: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		collect := *in
		collect.Req.Collect = true
		res, err := eng.Run(context.Background(), cl, &collect)
		if err != nil {
			t.Fatal(err)
		}
		joined := res.Released()
		for _, sh := range shapes {
			jn := NewJoin(eng, cl, "V", in, nil)
			root, err := sh.build(jn)
			if err != nil {
				t.Fatal(err)
			}
			spy := &spyOp{Operator: &joinOp{node: jn}, tables: map[*tuple.SubTable]bool{}}
			got := drain(t, opsOver(root, spy))
			want := drain(t, opsOver(root, &tableOp{st: joined}))
			if err := sameBits(got, want); err != nil {
				t.Errorf("%s %s: %v", eng.Name(), sh.name, err)
			}
			// A streaming run's in-flight bound, which also caps its
			// free list.
			inFlight := newReorder(jn.Parts, false).maxFree
			t.Logf("%s %s: %d batches in %d tables", eng.Name(), sh.name, spy.batches, len(spy.tables))
			if len(spy.tables) > inFlight {
				t.Errorf("%s %s: %d batches in %d tables, more than the %d a run can hold in flight",
					eng.Name(), sh.name, spy.batches, len(spy.tables), inFlight)
			}
		}
	}
}

// TestReorderFreeListCapped: a committed run holds a part's whole output
// until Done, far more batches than a streaming run has in flight. Once
// the consumer is through them, the free list keeps only maxFree and the
// rest go to the garbage collector.
func TestReorderFreeListCapped(t *testing.T) {
	r := newReorder(2, true)
	n := 3 * r.maxFree
	for i := 0; i < n; i++ {
		if err := r.Emit(i%2, testBatch(int32(i%2), float32(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	r.Done(0)
	r.Done(1)
	r.finish(nil)
	if got := len(drainReorder(t, r)); got != n {
		t.Fatalf("drained %d values, want %d", got, n)
	}
	free := 0
	for r.Free() != nil {
		free++
	}
	if free != r.maxFree {
		t.Fatalf("%d batches free after %d consumed, want the cap %d", free, n, r.maxFree)
	}
}
