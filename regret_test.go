package sciview

import (
	"fmt"
	"testing"
)

// The regret replay closes the evaluation loop on the adaptive planner:
// it runs a golden SQL corpus under several cluster regimes, measures
// every query under BOTH engines on dedicated forced systems, and scores
// the planner's choices (static configuration layer vs the online-
// calibrated layer) against the measured-faster engine. Accuracy is the
// fraction of decisions that picked the faster engine; regret is the
// wall-clock time lost when they didn't.

// regretQuery is one scored corpus query.
type regretQuery struct {
	scenario, sql string
	// ij and gh are the engine times in seconds measured on the forced
	// reference systems; faster names the measured winner.
	ij, gh float64
	faster string
	// static and adaptive are the engines the two planner layers chose; a
	// choice is correct when it is the measured-faster engine or within
	// the tie band of it, and its regret is the seconds lost otherwise.
	static, adaptive               string
	staticCorrect, adaptiveCorrect bool
	staticRegret, adaptiveRegret   float64
}

func (q regretQuery) String() string {
	return fmt.Sprintf("%-12s %-44s ij %7.2fms gh %7.2fms faster %s static %s adaptive %s",
		q.scenario, q.sql, q.ij*1e3, q.gh*1e3, q.faster,
		mark(q.static, q.staticCorrect), mark(q.adaptive, q.adaptiveCorrect))
}

func mark(engine string, correct bool) string {
	if correct {
		return engine + " ✓"
	}
	return engine + " ✗"
}

// regretTieBand treats a decision as correct when its engine's measured
// time is within 10% of the faster engine's: below measurement noise the
// "wrong" choice carries no meaningful regret and scoring it as an error
// would make accuracy a coin flip on balanced scenarios.
const regretTieBand = 0.10

// regretScenario is one cluster regime of the replay. The throttles are
// chosen so different resources dominate and the measured-faster engine
// genuinely differs across scenarios.
type regretScenario struct {
	name string
	spec ClusterSpec
}

// regretScenarios returns the regimes; quick keeps only the first.
func regretScenarios(quick bool) []regretScenario {
	scenarios := []regretScenario{
		// Slow scratch disks: GH pays the partition spill, IJ does not.
		{"spill-bound", ClusterSpec{
			ComputeNodes: 2, DiskReadBw: 4 << 20, DiskWriteBw: 2 << 20,
		}},
		// Era CPU with free I/O: the per-edge lookup volume decides it. At
		// 20 µs/op the modeled lookups dwarf GH's partition pass; at a
		// tenth of that, IJ's extra lookups and GH's partitioning cost
		// about the same and the regime sits on the crossover.
		{"cpu-bound", ClusterSpec{
			ComputeNodes: 2, CPUSecPerOp: 2e-5,
		}},
		// Both throttles at once: neither term vanishes from the models.
		{"mixed", ClusterSpec{
			ComputeNodes: 3, DiskReadBw: 8 << 20, DiskWriteBw: 4 << 20, CPUSecPerOp: 1e-6,
		}},
	}
	if quick {
		return scenarios[:1]
	}
	return scenarios
}

// regretCorpus returns the statements; quick keeps only the first three.
func regretCorpus(quick bool) []string {
	corpus := []string{
		"SELECT COUNT(*) FROM V1",
		"SELECT * FROM V1 WHERE x BETWEEN 0 AND 7",
		"SELECT wp, oilp FROM V1 WHERE z = 1",
		"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
		"SELECT MIN(wp), MAX(oilp) FROM V1",
		"SELECT * FROM V1 WHERE x >= 4 AND y < 12",
	}
	if quick {
		return corpus[:3]
	}
	return corpus
}

// regretSystem builds one system over ds with the given force mode
// ("ij"/"gh" pins the engine, "" adaptive, "static" adaptive layer off)
// and defines the corpus view.
func regretSystem(t *testing.T, ds *Dataset, spec ClusterSpec, mode string) *System {
	t.Helper()
	sys, err := NewSystem(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if mode == "static" {
		sys.DisableCalibration()
	} else if err := sys.ForceEngine(mode); err != nil {
		t.Fatal(err)
	}
	// Fixed α so the replay does not depend on the build host's one-shot
	// calibration; the adaptive system refines them from its own runs.
	sys.SetAlphas(80e-9, 40e-9)
	if _, err := sys.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func regretRun(t *testing.T, sys *System, sql string) *PlanInfo {
	t.Helper()
	res, err := sys.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("regret query %q produced no plan", sql)
	}
	return res.Plan
}

// replayRegret runs the corpus under every scenario and scores both
// planner layers.
func replayRegret(t *testing.T, quick bool) []regretQuery {
	t.Helper()
	grid := Dims{16, 16, 8}
	if quick {
		grid = Dims{8, 8, 4}
	}
	corpus := regretCorpus(quick)
	var queries []regretQuery
	for _, sc := range regretScenarios(quick) {
		// Fresh dataset per scenario: each system keeps its own caches, so
		// forced timings stay comparable within a scenario.
		ds, err := GenerateOilReservoir(OilReservoirSpec{
			Grid: grid, LeftPart: Dims{4, 4, 2}, RightPart: Dims{2, 2, 4},
			StorageNodes: 2, Seed: 2006,
		})
		if err != nil {
			t.Fatal(err)
		}
		sysIJ := regretSystem(t, ds, sc.spec, "ij")
		sysGH := regretSystem(t, ds, sc.spec, "gh")
		sysAuto := regretSystem(t, ds, sc.spec, "")
		sysStatic := regretSystem(t, ds, sc.spec, "static")
		// Warmup: charge every system's caches once, and give the adaptive
		// estimator enough observed runs to graduate its live signals
		// before any scored decision.
		for _, sys := range []*System{sysIJ, sysGH, sysStatic, sysAuto, sysAuto, sysAuto} {
			regretRun(t, sys, corpus[0])
		}
		for _, sql := range corpus {
			q := regretQuery{
				scenario: sc.name, sql: sql,
				ij:       regretRun(t, sysIJ, sql).Measured.Seconds(),
				gh:       regretRun(t, sysGH, sql).Measured.Seconds(),
				adaptive: regretRun(t, sysAuto, sql).Engine,
				static:   regretRun(t, sysStatic, sql).Engine,
			}
			fastest := q.ij
			q.faster = "ij"
			if q.gh < q.ij {
				q.faster, fastest = "gh", q.gh
			}
			score := func(choice string) (bool, float64) {
				chosen := q.ij
				if choice == "gh" {
					chosen = q.gh
				}
				return chosen-fastest <= regretTieBand*fastest, chosen - fastest
			}
			q.staticCorrect, q.staticRegret = score(q.static)
			q.adaptiveCorrect, q.adaptiveRegret = score(q.adaptive)
			t.Log(q)
			queries = append(queries, q)
		}
	}
	return queries
}

// TestRegretSmoke guards the adaptive planner's decision quality on the
// full replay (3 regimes × 6 statements): the calibrated layer must pick
// the measured-faster engine for at least 80% of them and never regress
// below the static layer by more than one decision. Under -short it
// replays the quick corpus (one lopsided regime, three statements), where
// the calibrated layer need only beat a coin flip.
func TestRegretSmoke(t *testing.T) {
	floor := 0.80
	if testing.Short() {
		floor = 0.5
	}
	queries := replayRegret(t, testing.Short())
	if want := len(regretScenarios(testing.Short())) * len(regretCorpus(testing.Short())); len(queries) != want {
		t.Fatalf("replay scored %d queries, want %d", len(queries), want)
	}
	var static, adaptive int
	for _, q := range queries {
		if q.staticCorrect {
			static++
		}
		if q.adaptiveCorrect {
			adaptive++
		}
		if q.adaptiveRegret < 0 || q.staticRegret < 0 {
			t.Errorf("%s: negative regret (%g / %g)", q.sql, q.staticRegret, q.adaptiveRegret)
		}
	}
	if accuracy := float64(adaptive) / float64(len(queries)); accuracy < floor {
		t.Errorf("adaptive decision accuracy %.2f (%d/%d), want >= %.2f", accuracy, adaptive, len(queries), floor)
	}
	if adaptive < static-1 {
		t.Errorf("calibration made decisions worse: adaptive %d vs static %d correct", adaptive, static)
	}
}
