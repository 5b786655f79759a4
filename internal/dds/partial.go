package dds

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"sciview/internal/query"
	"sciview/internal/tuple"
)

// Distributed aggregation: each joiner folds its result sub-tables into a
// Partial (per-group count/sum/min/max state), partials are merged, and
// the merged state is finalized into the output table. This is the
// decomposable-aggregate evaluation a distributed DDS needs — AVG, SUM,
// MIN, MAX and COUNT all decompose — and it avoids centralizing raw join
// output when only aggregates are requested.

// Partial is per-group aggregation state for a fixed (items, groupBy)
// specification over one input partition.
type Partial struct {
	schema   tuple.Schema
	items    []query.SelectItem
	groupBy  []string
	groups   map[string]*pgroup
	havingOn bool
	hAttr    string
}

type pgroup struct {
	key  []float32
	accs []accumulator
	hav  accumulator
}

// NewPartial prepares empty state. having may be nil; when present its
// accumulator is folded alongside (the HAVING aggregate may differ from
// every select item).
func NewPartial(schema tuple.Schema, items []query.SelectItem, groupBy []string, having *query.Having) (*Partial, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("dds: no aggregation items")
	}
	for _, it := range items {
		if it.Star || it.Agg == query.AggNone {
			return nil, fmt.Errorf("dds: aggregation requires aggregate items, got %+v", it)
		}
		if it.Attr != "*" && schema.Index(it.Attr) < 0 {
			return nil, fmt.Errorf("dds: no attribute %q to aggregate", it.Attr)
		}
	}
	if _, err := schema.Indexes(groupBy); err != nil {
		return nil, err
	}
	p := &Partial{
		schema:  schema,
		items:   items,
		groupBy: groupBy,
		groups:  make(map[string]*pgroup),
	}
	if having != nil {
		if having.Attr != "*" && schema.Index(having.Attr) < 0 {
			return nil, fmt.Errorf("dds: HAVING references unknown attribute %q", having.Attr)
		}
		p.havingOn = true
		p.hAttr = having.Attr
	}
	return p, nil
}

// Groups returns the number of distinct groups accumulated so far —
// the quantity out-of-core aggregation compares against its memory
// charge to detect skewed partitions.
func (p *Partial) Groups() int { return len(p.groups) }

// Fold accumulates every row of st into the partial state.
func (p *Partial) Fold(st *tuple.SubTable) error {
	if st == nil || st.NumRows() == 0 {
		return nil
	}
	if !st.Schema.Equal(p.schema) {
		return fmt.Errorf("dds: mixed schemas in aggregation input")
	}
	groupIdxs, _ := p.schema.Indexes(p.groupBy)
	itemIdx := make([]int, len(p.items))
	for i, it := range p.items {
		if it.Attr == "*" {
			itemIdx[i] = -1
		} else {
			itemIdx[i] = p.schema.Index(it.Attr)
		}
	}
	havIdx := -1
	if p.havingOn && p.hAttr != "*" {
		havIdx = p.schema.Index(p.hAttr)
	}
	var keyBuf []byte
	for r := 0; r < st.NumRows(); r++ {
		// The map key is the group's key words, big-endian: equal for one
		// key class, and ordered as Finalize emits the groups.
		keyBuf = keyBuf[:0]
		for _, gi := range groupIdxs {
			keyBuf = binary.BigEndian.AppendUint32(keyBuf, tuple.KeyWord(st.Value(r, gi)))
		}
		g, ok := p.groups[string(keyBuf)]
		if !ok {
			g = &pgroup{key: make([]float32, len(groupIdxs)), accs: make([]accumulator, len(p.items))}
			for i, gi := range groupIdxs {
				g.key[i] = tuple.KeyValue(st.Value(r, gi))
			}
			p.groups[string(keyBuf)] = g
		}
		for i := range p.items {
			if itemIdx[i] < 0 {
				g.accs[i].add(0)
			} else {
				g.accs[i].add(float64(st.Value(r, itemIdx[i])))
			}
		}
		if p.havingOn {
			if havIdx < 0 {
				g.hav.add(0)
			} else {
				g.hav.add(float64(st.Value(r, havIdx)))
			}
		}
	}
	return nil
}

// Merge folds another partial (same specification) into p.
func (p *Partial) Merge(o *Partial) error {
	if o == nil {
		return nil
	}
	if len(o.items) != len(p.items) {
		return fmt.Errorf("dds: merging partials with different item counts")
	}
	for key, og := range o.groups {
		g, ok := p.groups[key]
		if !ok {
			p.groups[key] = og
			continue
		}
		for i := range g.accs {
			g.accs[i].merge(&og.accs[i])
		}
		g.hav.merge(&og.hav)
	}
	return nil
}

// Finalize produces the output table (group-by attrs then one column per
// item), filtered by having and ordered by ascending group key under
// ORDER BY's rule (tuple.KeyWord: -0 and +0 are one group, all NaNs are
// one group, last). Each group's key is emitted as its tuple.KeyValue.
func (p *Partial) Finalize(having *query.Having) (*tuple.SubTable, error) {
	groupIdxs, _ := p.schema.Indexes(p.groupBy)
	attrs := make([]tuple.Attr, 0, len(p.groupBy)+len(p.items))
	for _, gi := range groupIdxs {
		attrs = append(attrs, p.schema.Attrs[gi])
	}
	for _, it := range p.items {
		attrs = append(attrs, tuple.Attr{Name: aggColName(it), Kind: tuple.Measure})
	}
	out := tuple.NewSubTable(tuple.ID{Table: -3, Chunk: -1}, tuple.Schema{Attrs: attrs}, len(p.groups))

	keys := make([]string, 0, len(p.groups))
	for k := range p.groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	row := make([]float32, len(attrs))
	for _, k := range keys {
		g := p.groups[k]
		if having != nil && !evalHaving(having, &g.hav) {
			continue
		}
		copy(row, g.key)
		for i, it := range p.items {
			row[len(groupIdxs)+i] = float32(g.accs[i].result(it.Agg))
		}
		out.AppendRow(row...)
	}
	return out, nil
}

// AggregateDistributed evaluates the aggregation by folding each input
// partition into its own partial concurrently (one worker per partition —
// the per-joiner evaluation of a distributed aggregation DDS), merging,
// and finalizing. It is semantically identical to Aggregate.
func AggregateDistributed(inputs []*tuple.SubTable, items []query.SelectItem, groupBy []string, having *query.Having) (*tuple.SubTable, error) {
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
	partials := make([]*Partial, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		if in == nil {
			continue
		}
		p, err := NewPartial(schema, items, groupBy, having)
		if err != nil {
			return nil, err
		}
		partials[i] = p
		wg.Add(1)
		go func(i int, in *tuple.SubTable) {
			defer wg.Done()
			errs[i] = partials[i].Fold(in)
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var merged *Partial
	for _, p := range partials {
		if p == nil {
			continue
		}
		if merged == nil {
			merged = p
			continue
		}
		if err := merged.Merge(p); err != nil {
			return nil, err
		}
	}
	if merged == nil {
		return nil, fmt.Errorf("dds: no input rows to aggregate")
	}
	return merged.Finalize(having)
}

// merge folds another accumulator's state into a.
func (a *accumulator) merge(o *accumulator) {
	if o.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *o
		return
	}
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	a.count += o.count
	a.sum += o.sum
}
