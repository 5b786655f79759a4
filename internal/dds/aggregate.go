package dds

import (
	"fmt"
	"math"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// Aggregate evaluates aggregation items over the rows of the input
// sub-tables (all sharing schema), grouped by the GROUP BY attributes, with
// an optional HAVING filter on the groups. The result is a sub-table whose
// schema is the group-by attributes followed by one column per item, named
// like "avg_wp" or "count". Groups are emitted in ascending group-key order
// so results are deterministic. It is one Partial folding every input in
// order.
//
// This is the aggregation DDS the paper lists as future work ("we plan to
// investigate other aspects of view creation, including aggregation
// operations"), layered over the join DDS or a table scan.
func Aggregate(inputs []*tuple.SubTable, items []query.SelectItem, groupBy []string, having *query.Having) (*tuple.SubTable, error) {
	var schema tuple.Schema
	for _, in := range inputs {
		if in != nil {
			schema = in.Schema
			break
		}
	}
	if schema.NumAttrs() == 0 {
		return nil, fmt.Errorf("dds: no input rows to aggregate")
	}
	p, err := NewPartial(schema, items, groupBy, having)
	if err != nil {
		return nil, err
	}
	for _, in := range inputs {
		if err := p.Fold(in); err != nil {
			return nil, err
		}
	}
	return p.Finalize(having)
}

// AggSchema returns the output schema Aggregate and Partial.Finalize
// produce for a specification, without evaluating anything: the group-by
// attributes (original kinds) followed by one Measure column per item.
// Plan construction uses it to type an aggregation node statically.
func AggSchema(schema tuple.Schema, items []query.SelectItem, groupBy []string) (tuple.Schema, error) {
	groupIdxs, err := schema.Indexes(groupBy)
	if err != nil {
		return tuple.Schema{}, err
	}
	for _, it := range items {
		if it.Star || it.Agg == query.AggNone {
			return tuple.Schema{}, fmt.Errorf("dds: aggregation requires aggregate items, got %+v", it)
		}
		if it.Attr != "*" && schema.Index(it.Attr) < 0 {
			return tuple.Schema{}, fmt.Errorf("dds: no attribute %q to aggregate", it.Attr)
		}
	}
	attrs := make([]tuple.Attr, 0, len(groupBy)+len(items))
	for _, gi := range groupIdxs {
		attrs = append(attrs, schema.Attrs[gi])
	}
	for _, it := range items {
		attrs = append(attrs, tuple.Attr{Name: aggColName(it), Kind: tuple.Measure})
	}
	return tuple.Schema{Attrs: attrs}, nil
}

// aggColName derives the output column name of an aggregate item.
func aggColName(it query.SelectItem) string {
	name := map[query.Agg]string{
		query.AggAvg: "avg", query.AggSum: "sum", query.AggMin: "min",
		query.AggMax: "max", query.AggCount: "count",
	}[it.Agg]
	if it.Attr == "*" {
		return name
	}
	return name + "_" + it.Attr
}

// accumulator is one aggregate's state for one group. Partial's foldItem
// updates only the fields its kind reads.
type accumulator struct {
	count int64
	sum   float64
	min   float64
	max   float64
}

func (a *accumulator) result(agg query.Agg) float64 {
	switch agg {
	case query.AggAvg:
		if a.count == 0 {
			return math.NaN()
		}
		return a.sum / float64(a.count)
	case query.AggSum:
		return a.sum
	case query.AggMin:
		return a.min
	case query.AggMax:
		return a.max
	case query.AggCount:
		return float64(a.count)
	}
	return math.NaN()
}

func evalHaving(h *query.Having, acc *accumulator) bool {
	v := acc.result(h.Agg)
	switch h.Op {
	case "=":
		return v == h.Val
	case "<":
		return v < h.Val
	case "<=":
		return v <= h.Val
	case ">":
		return v > h.Val
	case ">=":
		return v >= h.Val
	}
	return false
}
