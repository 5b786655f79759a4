// Package dds implements Derived Data Sources: the layered views built on
// top of Basic Data Sources. The join-based DDS (JoinView) is the paper's
// focus; this package also provides the range-selecting table scan used for
// plain BDS queries and an aggregation DDS (AVG/SUM/MIN/MAX/COUNT with
// GROUP BY and HAVING), the paper's stated future-work extension, layered
// over either.
package dds

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// JoinView is a join-based Derived Data Source: V = Left ⊕attrs Right,
// optionally restricted by a base WHERE clause fixed at view-definition
// time.
type JoinView struct {
	Name      string
	Left      string
	Right     string
	JoinAttrs []string
	Where     []query.Pred
}

// FromCreate builds a view definition from a parsed CREATE VIEW statement,
// validating the referenced tables and join attributes against the catalog.
func FromCreate(cat *metadata.Catalog, cv *query.CreateView) (*JoinView, error) {
	left, err := cat.Table(cv.Left)
	if err != nil {
		return nil, err
	}
	right, err := cat.Table(cv.Right)
	if err != nil {
		return nil, err
	}
	for _, a := range cv.JoinAttrs {
		if left.Schema.Index(a) < 0 {
			return nil, fmt.Errorf("dds: view %s: table %s has no join attribute %q", cv.Name, cv.Left, a)
		}
		if right.Schema.Index(a) < 0 {
			return nil, fmt.Errorf("dds: view %s: table %s has no join attribute %q", cv.Name, cv.Right, a)
		}
	}
	return &JoinView{
		Name: cv.Name, Left: cv.Left, Right: cv.Right,
		JoinAttrs: cv.JoinAttrs, Where: cv.Where,
	}, nil
}

// Schema returns the view's output schema.
func (v *JoinView) Schema(cat *metadata.Catalog) (tuple.Schema, error) {
	left, err := cat.Table(v.Left)
	if err != nil {
		return tuple.Schema{}, err
	}
	right, err := cat.Table(v.Right)
	if err != nil {
		return tuple.Schema{}, err
	}
	return left.Schema.JoinResult(right.Schema, v.JoinAttrs, "r_"), nil
}

// Request assembles the engine request for a query against the view,
// merging the view's base predicates with the query's.
func (v *JoinView) Request(extra []query.Pred, collect bool) (engine.Request, error) {
	merged, err := query.MergePreds(slices.Concat(v.Where, extra))
	if err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		LeftTable:  v.Left,
		RightTable: v.Right,
		JoinAttrs:  v.JoinAttrs,
		Filter:     query.ToRange(merged),
		Collect:    collect,
	}, nil
}

// ScanTable is the simple selection/projection DDS over one BDS table: it
// resolves the chunks intersecting the predicates, fetches them in parallel
// (fanned out across compute nodes) with the projection pushed down to the
// BDS (only the named attributes travel; the record-level filter is applied
// before the projection), and concatenates. proj == nil keeps all
// attributes; otherwise the result columns follow proj's order.
func ScanTable(cl *cluster.Cluster, table string, preds []query.Pred, proj []string) (*tuple.SubTable, error) {
	def, err := cl.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	// Only constraints on this table's attributes apply.
	var mine []query.Pred
	for _, p := range preds {
		if def.Schema.Index(p.Attr) < 0 {
			return nil, fmt.Errorf("dds: table %s has no attribute %q", table, p.Attr)
		}
		mine = append(mine, p)
	}
	if proj != nil {
		if _, err := def.Schema.Indexes(proj); err != nil {
			return nil, err
		}
	}
	filter := query.ToRange(mine)
	descs, err := cl.Catalog.ChunksInRange(table, filter)
	if err != nil {
		return nil, err
	}
	nj := len(cl.Compute)
	parts := make([]*tuple.SubTable, len(descs))
	errs := make([]error, len(descs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, nj)
	for i, d := range descs {
		wg.Add(1)
		go func(i int, id tuple.ID) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f, err := cl.Fetch(context.Background(), i%nj, id, &filter, proj)
			if err == nil {
				parts[i], err = f.SubTable()
			}
			errs[i] = err
		}(i, d.ID())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	outSchema := engine.ProjectedSchema(def.Schema, proj)
	out := tuple.NewSubTable(tuple.ID{Table: def.ID, Chunk: -1}, outSchema, 0)
	for _, p := range parts {
		if err := out.AppendAll(p); err != nil {
			return nil, err
		}
	}
	if proj != nil {
		return out.Project(proj)
	}
	return out, nil
}
