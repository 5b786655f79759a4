package harness

import (
	"fmt"
	"io"

	"sciview/internal/partition"
)

// basePart returns the baseline right-table partition: a quarter of the
// grid in x and y and half in z, giving the 4×4×2 = 32 sub-tables per
// table the sweeps are built around.
func (c *Config) basePart() partition.Dims {
	return partition.D(c.Grid.X/4, c.Grid.Y/4, c.Grid.Z/2)
}

// splitPart halves the partition d times (largest dimension first),
// producing a left partition nested inside the right one so that every
// right sub-table overlaps exactly 2^d left sub-tables.
func splitPart(p partition.Dims, d int) partition.Dims {
	for i := 0; i < d; i++ {
		switch {
		case p.X >= p.Y && p.X >= p.Z && p.X > 1:
			p.X /= 2
		case p.Y >= p.Z && p.Y > 1:
			p.Y /= 2
		default:
			p.Z /= 2
		}
	}
	return p
}

// Fig4 regenerates Figure 4: execution time versus the dataset parameter
// n_e·c_S at constant grid size and constant edge ratio.
//
// Sweep construction: the right partition q is fixed; the left partition
// p = q/2^d is nested inside it. Each right sub-table then overlaps
// g = 2^d left sub-tables, so n_e·c_S = g·T grows with d while the edge
// ratio n_e·c_R·c_S/T² = c_S/T stays constant — the paper's setup. IJ's
// lookup cost grows with n_e·c_S; GH is insensitive; they cross.
func Fig4(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	depths := []int{0, 1, 2, 3, 4, 5}
	if cfg.Quick {
		depths = []int{0, 3, 5}
	}
	q := cfg.basePart()
	exp := &Experiment{
		ID:    "fig4",
		Title: "IJ vs GH while varying n_e*c_S (constant grid, constant edge ratio)",
		XName: "n_e*c_S",
	}
	for _, d := range depths {
		p := splitPart(q, d)
		ds, err := cfg.dataset(cfg.Grid, p, q, 1)
		if err != nil {
			return nil, err
		}
		cl, err := cfg.clusterFor(ds, cfg.ComputeNodes, false, 0, 1)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, false)
		neCs := float64(params.Ne) * float64(params.CS)
		exp.Rows = append(exp.Rows, Row{
			Label:      fmt.Sprintf("%.0f", neCs),
			X:          neCs,
			IJMeasured: ijSec, GHMeasured: ghSec,
			IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: IJ grows with n_e*c_S, GH flat, crossover predicted by the model")
	return exp, nil
}

// Fig5 regenerates Figure 5: execution time versus the number of compute
// nodes, on a dataset with low n_e·c_S (so IJ outperforms GH and the gap
// shrinks as 1/n_j).
func Fig5(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	njs := []int{1, 2, 3, 4, 5}
	if cfg.Quick {
		njs = []int{1, 2, 4}
	}
	q := cfg.basePart()
	ds, err := cfg.dataset(cfg.Grid, q, q, 1)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:    "fig5",
		Title: "IJ vs GH while varying the number of compute nodes (low n_e*c_S)",
		XName: "compute nodes",
	}
	for _, nj := range njs {
		cl, err := cfg.clusterFor(ds, nj, false, 0, 1)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, false)
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%d", nj), X: float64(nj),
			IJMeasured: ijSec, GHMeasured: ghSec, IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: both drop with n_j; IJ wins; the IJ-GH gap shrinks proportionally to 1/n_j")
	return exp, nil
}

// Fig6 regenerates Figure 6: execution time versus T (grid size). Both
// algorithms scale linearly, and so does the gap between them.
func Fig6(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	scales := []int{4, 2, 1} // grid.X divided by scale, then 2× grid.X
	if cfg.Quick {
		scales = []int{4, 1}
	}
	q := cfg.basePart()
	p := splitPart(q, 1) // g = 2: mild IJ/GH separation at every size
	var grids []partition.Dims
	for _, s := range scales {
		grids = append(grids, partition.D(cfg.Grid.X/s, cfg.Grid.Y, cfg.Grid.Z))
	}
	if !cfg.Quick {
		grids = append(grids, partition.D(cfg.Grid.X*2, cfg.Grid.Y, cfg.Grid.Z))
	}
	exp := &Experiment{
		ID:    "fig6",
		Title: "IJ vs GH while varying the number of tuples T",
		XName: "tuples",
	}
	for _, g := range grids {
		ds, err := cfg.dataset(g, p, q, 1)
		if err != nil {
			return nil, err
		}
		cl, err := cfg.clusterFor(ds, cfg.ComputeNodes, false, 0, 1)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, false)
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%d", params.T), X: float64(params.T),
			IJMeasured: ijSec, GHMeasured: ghSec, IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: both linear in T; the absolute gap grows linearly too")
	return exp, nil
}

// Fig7 regenerates Figure 7: execution time versus the number of
// attributes (4 bytes each). Record size affects only transfer and
// GH's bucket I/O, so GH's slope is steeper.
func Fig7(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	measureCounts := []int{1, 5, 9, 13, 17} // total attrs 4, 8, 12, 16, 20
	if cfg.Quick {
		measureCounts = []int{1, 9}
	}
	q := cfg.basePart()
	exp := &Experiment{
		ID:    "fig7",
		Title: "IJ vs GH while varying the number of attributes",
		XName: "attributes",
	}
	for _, m := range measureCounts {
		ds, err := cfg.dataset(cfg.Grid, q, q, m)
		if err != nil {
			return nil, err
		}
		cl, err := cfg.clusterFor(ds, cfg.ComputeNodes, false, 0, 1)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, false)
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%d", 3+m), X: float64(3 + m),
			IJMeasured: ijSec, GHMeasured: ghSec, IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: both grow with record size; GH's slope is steeper (bucket write+read)")
	return exp, nil
}

// Fig8 regenerates Figure 8: the effect of computing power. The compute
// nodes' per-operation CPU charge is scaled (the modeled analogue of the
// paper's repeat-the-instructions technique); higher relative compute
// power favors IJ, whose CPU term dominates its cost.
func Fig8(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	scales := []float64{4, 2, 1, 0.5} // CPU cost multipliers: 4 = quarter-speed CPU
	if cfg.Quick {
		scales = []float64{4, 1, 0.5}
	}
	q := cfg.basePart()
	p := splitPart(q, 3) // g = 8: near the CPU/IO crossover
	ds, err := cfg.dataset(cfg.Grid, p, q, 1)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:    "fig8",
		Title: "Effect of computing power (scaled per-op CPU cost)",
		XName: "rel. power",
	}
	for _, f := range scales {
		cl, err := cfg.clusterFor(ds, cfg.ComputeNodes, false, 0, f)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, false)
		power := 1.0 / f
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%.3gx", power), X: power,
			IJMeasured: ijSec, GHMeasured: ghSec, IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: as compute power rises, IJ gains on GH (and overtakes it)")
	return exp, nil
}

// Fig9 regenerates Figure 9: a single shared NFS server performs all I/O
// and compute nodes have no local disks. GH suffers far more than IJ (only
// GH writes buckets), and adding compute nodes makes GH worse as their
// concurrent spills thrash the shared server.
func Fig9(cfg Config) (*Experiment, error) {
	cfg.setDefaults()
	njs := []int{1, 2, 3, 4, 5}
	if cfg.Quick {
		njs = []int{1, 2, 4}
	}
	const contention = 0.7
	q := cfg.basePart()
	ds, err := cfg.dataset(cfg.Grid, q, q, 1)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:    "fig9",
		Title: "Shared filesystem (single NFS server serves all I/O)",
		XName: "compute nodes",
	}
	for _, nj := range njs {
		cl, err := cfg.clusterFor(ds, nj, true, contention, 1)
		if err != nil {
			return nil, err
		}
		ijSec, ghSec, params, err := cfg.runBoth(cl, cfg.request())
		if err != nil {
			return nil, err
		}
		mi, mg := predictions(params, true)
		exp.Rows = append(exp.Rows, Row{
			Label: fmt.Sprintf("%d", nj), X: float64(nj),
			IJMeasured: ijSec, GHMeasured: ghSec, IJModel: mi, GHModel: mg,
		})
	}
	exp.Notes = append(exp.Notes,
		"expected shape: GH much worse than IJ; GH degrades as n_j grows (server thrash)",
		"models shown are the ideal shared-server predictions (no contention term)")
	return exp, nil
}

// RunAndPrint runs every figure, printing each as it completes.
func RunAndPrint(cfg Config, w io.Writer) error {
	type fig func(Config) (*Experiment, error)
	for _, f := range []fig{Fig4, Fig5, Fig6, Fig7, Fig8, Fig9} {
		e, err := f(cfg)
		if err != nil {
			return err
		}
		e.Print(w)
	}
	return nil
}
