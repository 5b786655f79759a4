package engine

import (
	"context"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/congraph"
	"sciview/internal/costmodel"
	"sciview/internal/metadata"
	"sciview/internal/tuple"
)

// Inputs is a join request resolved against the catalog: what the paper's
// MetaData Service (range → sub-table ids) answers, asked once, and the
// way to the page-level join index (candidate pairs), which the catalog
// keeps. The cost model prices it, the plan describes it and the chosen
// engine executes it; none of them resolves chunks again, so a decision
// and its run always see the same chunks.
type Inputs struct {
	// Req is the one copy of the request the statement carries. Callers may
	// stamp its run-policy fields after Resolve (Shared, Prefetch,
	// MemoryBudget, Sink, Progress, Collect); the fields
	// resolution read (tables, JoinAttrs, Filter, Project, AsOf, *Versions)
	// are fixed. AsOf is never 0 here: an unpinned request is pinned to the
	// catalog version current at Resolve.
	Req               Request
	LeftDef, RightDef *metadata.TableDef
	// LeftFilter and RightFilter are the request's constraints restricted
	// to each side's attributes, over that side's version window.
	LeftFilter, RightFilter metadata.Range
	// Project is the pushdown list (Request.EffectiveProject): what is
	// fetched. LeftSchema and RightSchema are each side's fetched columns.
	Project                 []string
	LeftSchema, RightSchema tuple.Schema
	// OutSchema is the join's output: the join result of the fetched sides
	// restricted to Req.Project, the demand — every column for a nil
	// demand, none for an empty one — in join-result order.
	OutSchema tuple.Schema
	// LeftDescs and RightDescs are the chunks in range, in catalog order.
	// Either may be empty: the join of nothing is nothing, not an error.
	LeftDescs, RightDescs []*chunk.Desc
	// PricedBy is the estimator whose constants priced this resolution:
	// the planner's Decide records it, Run.Finish feeds it what the run
	// measured. Nil — a run nobody priced, or a planner pinned to its
	// static constants — feeds nothing.
	PricedBy *costmodel.Estimator

	// cat is the catalog the chunks were resolved from; it keeps the join
	// index Graph reads.
	cat *metadata.Catalog
}

// Resolve validates req and resolves it against the catalog.
func Resolve(cat *metadata.Catalog, req Request) (*Inputs, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	leftDef, err := cat.Table(req.LeftTable)
	if err != nil {
		return nil, err
	}
	rightDef, err := cat.Table(req.RightTable)
	if err != nil {
		return nil, err
	}
	if req.AsOf == 0 {
		req.AsOf = cat.Version()
	}
	project := req.EffectiveProject()
	in := &Inputs{
		Req:     req,
		LeftDef: leftDef, RightDef: rightDef,
		LeftFilter:  req.Filter.Restrict(leftDef.Schema, req.LeftWindow()),
		RightFilter: req.Filter.Restrict(rightDef.Schema, req.RightWindow()),
		Project:     project,
		LeftSchema:  ProjectedSchema(leftDef.Schema, project),
		RightSchema: ProjectedSchema(rightDef.Schema, project),
		cat:         cat,
	}
	in.OutSchema = ProjectedSchema(in.LeftSchema.JoinResult(in.RightSchema, req.JoinAttrs, "r_"), req.Project)
	if in.LeftDescs, err = cat.ChunksInRange(req.LeftTable, in.LeftFilter); err != nil {
		return nil, err
	}
	if in.RightDescs, err = cat.ChunksInRange(req.RightTable, in.RightFilter); err != nil {
		return nil, err
	}
	return in, nil
}

// Graph returns the connectivity graph of the resolved chunk sets, which
// the catalog keeps (metadata.Catalog.JoinGraph): the cost model and IJ
// ask for it, a direct GH run never does. The graph is shared and
// read-only; a repeated statement gets the one its chunk sets got last,
// schedules included.
func (in *Inputs) Graph() (*congraph.Graph, error) {
	return in.cat.JoinGraph(in.Req.JoinAttrs, in.LeftDescs, in.RightDescs)
}

// RunRequest resolves req against the cluster's catalog and runs it on e —
// the whole path for callers that picked the engine themselves (the
// experiment harness, tests).
func RunRequest(ctx context.Context, e Engine, cl *cluster.Cluster, req Request) (*Result, error) {
	in, err := Resolve(cl.Catalog, req)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, cl, in)
}
