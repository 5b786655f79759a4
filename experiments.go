package sciview

import (
	"fmt"
	"io"

	"sciview/internal/harness"
)

// ExperimentSpec configures a reproduction of one of the paper's figures.
// The zero value uses the standard configuration (5 storage + 5 compute
// nodes, IDE-era disk/network bandwidths, PIII-era per-op CPU cost).
type ExperimentSpec struct {
	// Quick trims sweeps to a few sub-second points (for CI).
	Quick bool
	// StorageNodes/ComputeNodes override the 5+5 default.
	StorageNodes int
	ComputeNodes int
	// Seed overrides the dataset seed.
	Seed int64
}

func (s ExperimentSpec) config() harness.Config {
	var cfg harness.Config
	if s.Quick {
		cfg = harness.Quick()
	} else {
		cfg = harness.Defaults()
	}
	if s.StorageNodes > 0 {
		cfg.StorageNodes = s.StorageNodes
	}
	if s.ComputeNodes > 0 {
		cfg.ComputeNodes = s.ComputeNodes
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg
}

// ExperimentRow is one sweep point: measured and model-predicted execution
// times (seconds) for both join engines.
type ExperimentRow = harness.Row

// Experiment is one regenerated figure; Print renders it as an aligned
// text table and CSV as a CSV table (label + measured and model columns).
type Experiment = harness.Experiment

// Figures lists the reproducible experiment ids, in paper order.
func Figures() []string {
	return []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}

// RunExperiment regenerates one figure of the paper's evaluation.
func RunExperiment(id string, spec ExperimentSpec) (*Experiment, error) {
	cfg := spec.config()
	switch id {
	case "fig4":
		return harness.Fig4(cfg)
	case "fig5":
		return harness.Fig5(cfg)
	case "fig6":
		return harness.Fig6(cfg)
	case "fig7":
		return harness.Fig7(cfg)
	case "fig8":
		return harness.Fig8(cfg)
	case "fig9":
		return harness.Fig9(cfg)
	}
	return nil, fmt.Errorf("sciview: unknown experiment %q (want one of %v)", id, Figures())
}

// RunAllExperiments regenerates every figure, printing each table to w as
// it completes.
func RunAllExperiments(spec ExperimentSpec, w io.Writer) error {
	return harness.RunAndPrint(spec.config(), w)
}

// RunAblations runs the design-choice ablation (cache size vs the memory
// assumption), printing its table to w.
func RunAblations(spec ExperimentSpec, w io.Writer) error {
	return harness.RunAblations(spec.config(), w)
}

// RunPaperScale prints the cost-model extrapolation of Figure 6 to the
// paper's 2-billion-tuple endpoint at 2006 testbed parameters.
func RunPaperScale(w io.Writer) {
	harness.Fig6PaperScale().Print(w)
}
