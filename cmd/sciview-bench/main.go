// sciview-bench regenerates the paper's evaluation (Figures 4–9) on the
// emulated cluster, printing for every sweep point the measured IJ and GH
// execution times next to the cost-model predictions.
//
// Usage:
//
//	sciview-bench               # all figures, standard configuration
//	sciview-bench -fig fig4     # one figure
//	sciview-bench -quick        # trimmed sweeps (seconds, for smoke tests)
//	sciview-bench -fig fig6scale  # Figure 6 at the paper's full scale, cost model only
//	sciview-bench -ablations    # the design-choice ablations instead of the figures
//
// Service load, latency and per-layer cost are measured by the benchmark
// in bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"log"
	"os"

	"sciview"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sciview-bench: ")
	var (
		fig       = flag.String("fig", "", "figure to run (fig4..fig9; default all)")
		quick     = flag.Bool("quick", false, "trimmed sweeps")
		storage   = flag.Int("storage", 0, "storage nodes (default 5)")
		compute   = flag.Int("compute", 0, "compute nodes (default 5)")
		seed      = flag.Int64("seed", 0, "dataset seed (default 2006)")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations instead of the figures")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of aligned text (single -fig only)")
	)
	flag.Parse()
	spec := sciview.ExperimentSpec{
		Quick:        *quick,
		StorageNodes: *storage,
		ComputeNodes: *compute,
		Seed:         *seed,
	}
	if *ablations {
		if err := sciview.RunAblations(spec, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fig == "fig6scale" {
		sciview.RunPaperScale(os.Stdout)
		return
	}
	if *fig == "" {
		if err := sciview.RunAllExperiments(spec, os.Stdout); err != nil {
			log.Fatal(err)
		}
		sciview.RunPaperScale(os.Stdout)
		return
	}
	e, err := sciview.RunExperiment(*fig, spec)
	if err != nil {
		log.Fatal(err)
	}
	if *csvOut {
		if err := e.CSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	e.Print(os.Stdout)
}
