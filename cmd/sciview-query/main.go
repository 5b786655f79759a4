// sciview-query executes SQL statements against a dataset directory on an
// emulated cluster, printing result rows and, for join queries, the Query
// Planning Service's cost-model decision.
//
// Usage:
//
//	sciview-query -data /tmp/reservoir -compute 5 \
//	   "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)" \
//	   "SELECT AVG(wp) FROM V1 WHERE x BETWEEN 0 AND 31 GROUP BY z"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sciview"
	"sciview/cmd/internal/clusterflags"
)

var (
	clusterSpec = clusterflags.Register(flag.CommandLine)
	engine      = flag.String("engine", "", "force engine: ij or gh (default: cost-model choice)")
	cpuPerOp    = flag.Float64("cpu-per-op", 0, "modeled seconds per hash operation (0 = native)")
	memBudget   = flag.Int64("mem-budget", 0, "per-query memory budget in bytes; blocking operators spill to scratch when over (0 = unlimited)")
	sharedFS    = flag.Bool("shared-fs", false, "route all I/O through a single shared server")
	maxRows     = flag.Int("max-rows", 20, "rows to print per result (0 = all)")
	explainAll  = flag.Bool("explain", false, "print cost-model predictions for join queries")
	traceRuns   = flag.Bool("trace", false, "print a per-operation execution trace after each join")
	csvOut      = flag.Bool("csv", false, "print results as CSV instead of aligned text")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sciview-query: ")
	flag.Parse()
	data, spec := clusterSpec()
	if data == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := sciview.OpenDataset(data)
	if err != nil {
		log.Fatal(err)
	}
	spec.CPUSecPerOp = *cpuPerOp
	spec.SharedFS = *sharedFS
	spec.MemBudget = *memBudget
	sys, err := sciview.NewSystem(ds, spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.ForceEngine(*engine); err != nil {
		log.Fatal(err)
	}
	if *traceRuns {
		sys.EnableTrace()
	}
	for _, sql := range flag.Args() {
		fmt.Printf("> %s\n", sql)
		res, err := sys.Exec(sql)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case res.ViewCreated != "":
			fmt.Printf("view %s created\n", res.ViewCreated)
		case res.Rows != nil:
			if *csvOut {
				if err := res.Rows.WriteCSV(os.Stdout); err != nil {
					log.Fatal(err)
				}
			} else {
				res.Rows.WriteTo(os.Stdout, *maxRows)
				fmt.Printf("(%d rows)\n", res.Rows.NumRows())
			}
		}
		if res.Plan != nil && *explainAll {
			calib := "static"
			if res.Plan.Calibrated {
				calib = "live"
			}
			fmt.Printf("plan: engine=%s forced=%v calib=%s predicted IJ=%v GH=%v measured=%v tuples=%d\n",
				res.Plan.Engine, res.Plan.Forced, calib, res.Plan.PredictIJ, res.Plan.PredictGH,
				res.Plan.Measured, res.Plan.Tuples)
			if res.Plan.SpillBytes > 0 || res.Plan.SpillReadBytes > 0 {
				fmt.Printf("spill: wrote=%d read=%d bytes to scratch (budget %d)\n",
					res.Plan.SpillBytes, res.Plan.SpillReadBytes, *memBudget)
			}
		}
		if *traceRuns {
			if s := sys.TraceSummary(); s != "" {
				fmt.Print(s)
			}
		}
		fmt.Println()
	}
}
