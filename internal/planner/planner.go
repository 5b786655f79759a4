// Package planner implements the Query Planning Service: it derives the
// cost-model parameters of a join-view query from the catalog and cluster
// configuration, predicts both QES run times, chooses the faster engine,
// and executes SQL statements end to end (view creation, scans, joins, and
// aggregation).
package planner

import (
	"context"
	"fmt"

	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
)

// Planner is the Query Planning Service.
type Planner struct {
	// AlphaBuild and AlphaLookup are the host-calibrated CPU constants in
	// seconds/tuple — the static layer's starting point. Zero values
	// trigger a one-time calibration.
	AlphaBuild  float64
	AlphaLookup float64
	// Force overrides the cost-model decision: "", "ij" or "gh".
	Force string
	// Est is the layered cost estimator: Decide derives static Params as
	// always, then lets Est substitute live-calibrated constants once
	// enough decided runs have finished (engine.Run.Finish feeds it). New
	// installs one; set nil to pin decisions to the static configuration
	// layer.
	Est *costmodel.Estimator

	ijEngine engine.Engine
	ghEngine engine.Engine
}

// New returns a planner with lazily calibrated CPU constants and a fresh
// online calibration layer.
func New() *Planner {
	return &Planner{Est: costmodel.NewEstimator(), ijEngine: ij.New(), ghEngine: gh.New()}
}

// Decision records why an engine was chosen (see costmodel.Decision).
type Decision = costmodel.Decision

// calibrate fills the CPU constants if unset.
func (p *Planner) calibrate() {
	if p.AlphaBuild <= 0 || p.AlphaLookup <= 0 {
		p.AlphaBuild, p.AlphaLookup = costmodel.Calibrate(1 << 16)
	}
}

// ParamsFor derives the Table 1 parameters of a resolved request against a
// cluster: tuple counts and record sizes from the resolved chunk sets, the
// connectivity edge count from the page-level join index, node counts and
// bandwidths from the cluster configuration. A side that resolved to no
// chunks has zero tuples per sub-table.
func (p *Planner) ParamsFor(cl *cluster.Cluster, in *engine.Inputs) (costmodel.Params, error) {
	p.calibrate()
	graph, err := in.Graph()
	if err != nil {
		return costmodel.Params{}, err
	}
	var leftRows, rightRows int64
	for _, d := range in.LeftDescs {
		leftRows += int64(d.Rows)
	}
	for _, d := range in.RightDescs {
		rightRows += int64(d.Rows)
	}
	cfg := cl.Config
	alphaBuild := p.AlphaBuild + cfg.CPUSecPerOp
	alphaLookup := p.AlphaLookup + cfg.CPUSecPerOp
	// Projection pushdown shrinks the records that actually travel; the
	// models must price the projected sizes or they would mis-rank the
	// engines for narrow queries.
	return costmodel.Params{
		T:           leftRows,
		CR:          leftRows / int64(max(len(in.LeftDescs), 1)),
		CS:          rightRows / int64(max(len(in.RightDescs), 1)),
		Ne:          int64(graph.NumEdges()),
		RSR:         in.LeftSchema.RecordSize(),
		RSS:         in.RightSchema.RecordSize(),
		Ns:          cfg.StorageNodes,
		Nj:          cfg.ComputeNodes,
		NetBw:       cfg.NetAggregateBw(),
		ReadBw:      cfg.DiskReadBw,
		WriteBw:     cfg.DiskWriteBw,
		AlphaBuild:  alphaBuild,
		AlphaLookup: alphaLookup,
	}, nil
}

// Decide derives the static Params, applies the estimator's graduated
// live constants, predicts both engines from the resulting model, and
// picks the faster one (honoring Force). The returned Decision carries
// full provenance — the applied Params, both predictions, and whether
// calibrated constants displaced configured ones — and every decision is
// counted in the estimator's decision metric. The estimator that priced
// the inputs is recorded on them, so whichever engine run they reach
// scores this decision. When a side resolved to no chunks there is
// nothing to price: the predictions stay zero and the tie rule picks the
// engine that will run its zero units.
func (p *Planner) Decide(cl *cluster.Cluster, in *engine.Inputs) (engine.Engine, *Decision, error) {
	params, err := p.ParamsFor(cl, in)
	if err != nil {
		return nil, nil, err
	}
	d := &Decision{}
	if p.Est != nil {
		params, d.Constants = p.Est.Apply(params)
		d.Calibrated = d.Constants.AnyLive()
	}
	d.Params = params
	switch {
	case len(in.LeftDescs) == 0 || len(in.RightDescs) == 0:
		// Zero units to run: both predictions stay zero.
	case cl.Config.SharedFS:
		d.PredictIJ = params.IJSharedFS()
		d.PredictGH = params.GHSharedFS()
	default:
		d.PredictIJ = params.IJ()
		d.PredictGH = params.GH()
	}
	var eng engine.Engine
	switch p.Force {
	case "ij":
		d.Chosen, d.Forced = "ij", true
		eng = p.ijEngine
	case "gh":
		d.Chosen, d.Forced = "gh", true
		eng = p.ghEngine
	case "":
		// Ties (e.g. unlimited I/O makes the spill penalty vanish) go to
		// IJ, which never does extra work the model cannot see.
		if d.PredictIJ.Total <= d.PredictGH.Total {
			d.Chosen, eng = "ij", p.ijEngine
		} else {
			d.Chosen, eng = "gh", p.ghEngine
		}
	default:
		return nil, nil, fmt.Errorf("planner: unknown forced engine %q", p.Force)
	}
	p.Est.RecordDecision(d.Chosen, d.Forced, d.Calibrated)
	in.PricedBy = p.Est
	return eng, d, nil
}

// Run is the whole life of one join request outside the service and the
// plan layer: resolve, decide, run on the chosen engine (which observes on
// finishing). The Materialize oracle executes its joins through it.
func Run(ctx context.Context, p *Planner, cl *cluster.Cluster, req engine.Request) (*engine.Result, *Decision, error) {
	in, err := engine.Resolve(cl.Catalog, req)
	if err != nil {
		return nil, nil, err
	}
	eng, d, err := p.Decide(cl, in)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.Run(ctx, cl, in)
	if err != nil {
		return nil, nil, err
	}
	return res, d, nil
}
