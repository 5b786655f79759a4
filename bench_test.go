package sciview

// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// (the paper has no result tables beyond the parameter glossary of Table
// 1), each running the corresponding experiment sweep in its quick
// configuration and reporting headline metrics:
//
//	ij_first_s / gh_first_s — measured seconds at the sweep's first point
//	ij_last_s  / gh_last_s  — measured seconds at the sweep's last point
//	winner_flips            — 1 if the measured winner changes across the
//	                          sweep (the Figure 4 / Figure 8 crossover)
//	model_agree             — fraction of sweep points where the cost
//	                          model predicts the measured winner
//
// Run with: go test -bench=Fig -benchtime=1x
// Full-scale sweeps: cmd/sciview-bench (no -quick).

import (
	"os/exec"
	"testing"
)

// TestBenchQuick puts the benchmark harness (bench/, its own module)
// under the root module's `go test ./...`: it runs the harness's quick
// end-to-end test, which builds all four workloads against this tree and
// checks every response, so a change here that breaks a function bench/
// calls fails tier-1 rather than the next benchmark run.
func TestBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench module's quick pass (~15s)")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	out, err := exec.Command("go", "test", "-C", "bench", "-short", "-count=1", "-run", "TestQuick", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C bench: %v\n%s", err, out)
	}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	var last *Experiment
	for i := 0; i < b.N; i++ {
		e, err := RunExperiment(id, ExperimentSpec{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = e
	}
	rows := last.Rows
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	first, end := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.IJMeasured, "ij_first_s")
	b.ReportMetric(first.GHMeasured, "gh_first_s")
	b.ReportMetric(end.IJMeasured, "ij_last_s")
	b.ReportMetric(end.GHMeasured, "gh_last_s")
	flips := 0.0
	if winner(first.IJMeasured, first.GHMeasured) != winner(end.IJMeasured, end.GHMeasured) {
		flips = 1
	}
	b.ReportMetric(flips, "winner_flips")
	agree := 0
	for _, r := range rows {
		if winner(r.IJMeasured, r.GHMeasured) == winner(r.IJModel, r.GHModel) {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(len(rows)), "model_agree")
}

func winner(ij, gh float64) string {
	if ij <= gh {
		return "ij"
	}
	return "gh"
}

// BenchmarkFig4_VaryNeCs regenerates Figure 4: execution time versus the
// dataset parameter n_e·c_S at constant grid size and edge ratio. Expected
// shape: IJ grows, GH flat, measured and modeled crossover agree.
func BenchmarkFig4_VaryNeCs(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFig5_VaryComputeNodes regenerates Figure 5: both algorithms
// versus the number of compute nodes on a low-n_e·c_S dataset. Expected
// shape: both drop with n_j, IJ wins, gap shrinks as 1/n_j.
func BenchmarkFig5_VaryComputeNodes(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig6_VaryTuples regenerates Figure 6: both algorithms versus T.
// Expected shape: linear scaling for both; the gap grows linearly.
func BenchmarkFig6_VaryTuples(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7_VaryAttributes regenerates Figure 7: both algorithms
// versus the number of 4-byte attributes. Expected shape: both grow with
// record size; GH's slope is steeper (bucket write+read).
func BenchmarkFig7_VaryAttributes(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8_ComputePower regenerates Figure 8: the effect of compute
// power (scaled per-op CPU cost). Expected shape: rising compute power
// favors IJ, which overtakes GH.
func BenchmarkFig8_ComputePower(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9_SharedFS regenerates Figure 9: a single NFS-like server
// performs all I/O. Expected shape: GH suffers far more than IJ and
// degrades as compute nodes are added.
func BenchmarkFig9_SharedFS(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkJoinEngines measures raw engine throughput (tuples/second,
// unthrottled cluster) for both QES implementations on a mid-size dataset,
// independent of the figure sweeps.
func BenchmarkJoinEngines(b *testing.B) {
	ds, err := GenerateOilReservoir(OilReservoirSpec{
		Grid:         Dims{X: 64, Y: 64, Z: 16},
		LeftPart:     Dims{X: 16, Y: 16, Z: 8},
		RightPart:    Dims{X: 8, Y: 8, Z: 8},
		StorageNodes: 4,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []string{"ij", "gh"} {
		b.Run(engine, func(b *testing.B) {
			sys, err := NewSystem(ds, ClusterSpec{ComputeNodes: 4})
			if err != nil {
				b.Fatal(err)
			}
			sys.SetAlphas(100e-9, 50e-9)
			if err := sys.ForceEngine(engine); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Exec(`CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var tuples int64
			for i := 0; i < b.N; i++ {
				res, err := sys.Exec(`SELECT COUNT(*) FROM V`)
				if err != nil {
					b.Fatal(err)
				}
				tuples += res.Plan.Tuples
			}
			b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkSQLParse measures the query front end.
func BenchmarkSQLParse(b *testing.B) {
	ds, err := GenerateOilReservoir(OilReservoirSpec{
		Grid:         Dims{X: 8, Y: 8, Z: 4},
		LeftPart:     Dims{X: 4, Y: 4, Z: 4},
		RightPart:    Dims{X: 4, Y: 4, Z: 4},
		StorageNodes: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(ds, ClusterSpec{ComputeNodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys.SetAlphas(100e-9, 50e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Exec(`SELECT MAX(oilp) FROM T1 WHERE x BETWEEN 0 AND 3 AND z = 0`); err != nil {
			b.Fatal(err)
		}
	}
}
