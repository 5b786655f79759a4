// Package harness regenerates the paper's evaluation: one experiment per
// figure (Figures 4–9), each sweeping the same parameter the paper sweeps
// and reporting measured IJ/GH execution times next to the cost-model
// predictions.
//
// Scale substitution: the paper ran on a 2001-era cluster (PIII 933 MHz,
// IDE disks, Fast Ethernet). The harness emulates that balance point at
// laptop scale with bandwidth throttles and a modeled per-hash-operation
// CPU cost (internal/simio, cluster.Config.CPUSecPerOp), so the CPU/IO
// cost ratio — which determines every crossover in the paper — is
// comparable. Absolute times are not meaningful; shapes, orderings and
// crossovers are.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/planner"
)

// Config sets the emulated platform and sweep sizes.
type Config struct {
	// StorageNodes and ComputeNodes default to the paper's 5 + 5 split.
	StorageNodes int
	ComputeNodes int
	// DiskReadBw, DiskWriteBw and NICBw are bytes/second (defaults emulate
	// the IDE-disk / Fast-Ethernet balance at reduced scale).
	DiskReadBw  float64
	DiskWriteBw float64
	NICBw       float64
	// CPUSecPerOp models the era-appropriate CPU speed: seconds charged
	// per hash operation on the compute nodes. Figure 8 sweeps it.
	CPUSecPerOp float64
	// Grid is the base dataset grid (T = Grid.Cells()).
	Grid partition.Dims
	// Quick trims every sweep for use in unit tests.
	Quick bool
	// Seed drives dataset generation.
	Seed int64

	// alphas are calibrated once on first use.
	alphaBuild  float64
	alphaLookup float64
}

// Defaults returns the standard experiment configuration.
func Defaults() Config {
	return Config{
		StorageNodes: 5,
		ComputeNodes: 5,
		DiskReadBw:   2e6,
		DiskWriteBw:  2e6,
		NICBw:        4e6,
		CPUSecPerOp:  2.5e-6,
		Grid:         partition.D(64, 64, 16),
		Seed:         2006,
	}
}

// Quick returns a configuration small enough for unit tests: a tiny grid
// with bandwidths and the per-op CPU charge scaled so modeled I/O and CPU
// costs stay well above real scheduling noise (runs of a few hundred ms).
func Quick() Config {
	c := Defaults()
	c.Quick = true
	c.Grid = partition.D(16, 16, 8)
	c.DiskReadBw, c.DiskWriteBw, c.NICBw = 0.4e6, 0.4e6, 0.8e6
	c.CPUSecPerOp = 13e-6
	return c
}

func (c *Config) setDefaults() {
	d := Defaults()
	if c.StorageNodes == 0 {
		c.StorageNodes = d.StorageNodes
	}
	if c.ComputeNodes == 0 {
		c.ComputeNodes = d.ComputeNodes
	}
	if c.DiskReadBw == 0 {
		c.DiskReadBw = d.DiskReadBw
	}
	if c.DiskWriteBw == 0 {
		c.DiskWriteBw = d.DiskWriteBw
	}
	if c.NICBw == 0 {
		c.NICBw = d.NICBw
	}
	if c.CPUSecPerOp == 0 {
		c.CPUSecPerOp = d.CPUSecPerOp
	}
	if !c.Grid.Positive() {
		c.Grid = d.Grid
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// calibrate measures the host's native per-operation hash costs once; the
// planner adds the modeled CPUSecPerOp on top.
func (c *Config) calibrate() {
	if c.alphaBuild <= 0 || c.alphaLookup <= 0 {
		c.alphaBuild, c.alphaLookup = costmodel.Calibrate(1 << 16)
	}
}

// Row is one sweep point of an experiment: measured seconds for both
// engines plus model predictions.
type Row struct {
	Label string
	X     float64
	// Measured wall-clock seconds.
	IJMeasured float64
	GHMeasured float64
	// Cost-model predictions in seconds.
	IJModel float64
	GHModel float64
}

// Experiment is a regenerated figure.
type Experiment struct {
	ID    string
	Title string
	XName string
	Rows  []Row
	Notes []string
}

// Winner returns "IJ" or "GH" for a row's measured times.
func (r Row) Winner() string {
	if r.IJMeasured <= r.GHMeasured {
		return "IJ"
	}
	return "GH"
}

// ModelWinner returns the model-predicted winner.
func (r Row) ModelWinner() string {
	if r.IJModel <= r.GHModel {
		return "IJ"
	}
	return "GH"
}

// Print renders the experiment as an aligned text table.
func (e *Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %6s %6s\n",
		e.XName, "IJ meas(s)", "GH meas(s)", "IJ model(s)", "GH model(s)", "meas", "model")
	for _, r := range e.Rows {
		fmt.Fprintf(w, "%-14s %12.3f %12.3f %12.3f %12.3f %6s %6s\n",
			r.Label, r.IJMeasured, r.GHMeasured, r.IJModel, r.GHModel, r.Winner(), r.ModelWinner())
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the experiment table.
func (e *Experiment) String() string {
	var sb strings.Builder
	e.Print(&sb)
	return sb.String()
}

// dataset generates the standard two-table dataset for a grid and
// partition pair, with the given number of scalar measures per table.
func (c *Config) dataset(grid, p, q partition.Dims, measures int) (*oilres.Dataset, error) {
	left := make([]string, measures)
	right := make([]string, measures)
	left[0], right[0] = "oilp", "wp"
	for i := 1; i < measures; i++ {
		left[i] = fmt.Sprintf("lm%d", i)
		right[i] = fmt.Sprintf("rm%d", i)
	}
	return oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: p, RightPart: q,
		LeftMeasures: left, RightMeasures: right,
		StorageNodes: c.StorageNodes,
		Seed:         c.Seed,
	})
}

// clusterFor assembles the emulated platform over a dataset. cpuScale
// multiplies the baseline per-op CPU cost (Figure 8 sweeps it; 1 elsewhere).
func (c *Config) clusterFor(ds *oilres.Dataset, nj int, shared bool, contention, cpuScale float64) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		StorageNodes:  c.StorageNodes,
		ComputeNodes:  nj,
		DiskReadBw:    c.DiskReadBw,
		DiskWriteBw:   c.DiskWriteBw,
		NetBw:         c.NICBw,
		SharedFS:      shared,
		NFSContention: contention,
		CacheBytes:    64 << 20,
		CPUSecPerOp:   c.CPUSecPerOp * cpuScale,
	}, ds.Catalog, ds.Stores)
}

// request is the standard full-view query.
func (c *Config) request() engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2",
		JoinAttrs: []string{"x", "y", "z"},
	}
}

// runBoth executes the request on both engines and computes predictions.
func (c *Config) runBoth(cl *cluster.Cluster, req engine.Request) (ijSec, ghSec float64, params costmodel.Params, err error) {
	c.calibrate()
	pl := planner.New()
	pl.AlphaBuild, pl.AlphaLookup = c.alphaBuild, c.alphaLookup
	in, err := engine.Resolve(cl.Catalog, req)
	if err != nil {
		return 0, 0, params, err
	}
	params, err = pl.ParamsFor(cl, in)
	if err != nil {
		return 0, 0, params, err
	}
	resIJ, err := ij.New().Run(context.Background(), cl, in)
	if err != nil {
		return 0, 0, params, err
	}
	resGH, err := gh.New().Run(context.Background(), cl, in)
	if err != nil {
		return 0, 0, params, err
	}
	return resIJ.Elapsed.Seconds(), resGH.Elapsed.Seconds(), params, nil
}

// predictions evaluates the cost models for a parameter set.
func predictions(params costmodel.Params, shared bool) (ijSec, ghSec float64) {
	if shared {
		return params.IJSharedFS().Total, params.GHSharedFS().Total
	}
	return params.IJ().Total, params.GH().Total
}

// CSV writes the experiment as a CSV table (for plotting).
func (e *Experiment) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,ij_measured_s,gh_measured_s,ij_model_s,gh_model_s\n",
		strings.ReplaceAll(e.XName, " ", "_")); err != nil {
		return err
	}
	for _, r := range e.Rows {
		if _, err := fmt.Fprintf(w, "%s,%.6f,%.6f,%.6f,%.6f\n",
			r.Label, r.IJMeasured, r.GHMeasured, r.IJModel, r.GHModel); err != nil {
			return err
		}
	}
	return nil
}
