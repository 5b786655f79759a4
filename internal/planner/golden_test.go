package planner

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/retry"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// goldenCorpus is the full SQL surface the streaming path must reproduce:
// every ORDER BY + LIMIT + HAVING combination, projections, pushdowns,
// derived views, table scans, and the validation errors. Both engines'
// output orders are defined, so every query compares byte for byte under
// either.
var goldenCorpus = []string{
	"SELECT * FROM V1",
	"SELECT * FROM V1 WHERE x BETWEEN 0 AND 3 AND z = 0",
	"SELECT * FROM V1 WHERE wp >= 0",
	"SELECT wp, oilp FROM V1 WHERE z = 1",
	"SELECT * FROM V1 ORDER BY x, y, z",
	"SELECT * FROM V1 ORDER BY x DESC, y, z LIMIT 5",
	"SELECT wp, oilp FROM V1 ORDER BY wp DESC, oilp LIMIT 7",
	"SELECT * FROM V1 LIMIT 3",
	"SELECT * FROM V1 LIMIT 0",
	"SELECT * FROM V1 LIMIT 100000",
	"SELECT x, COUNT(*), MIN(wp), MAX(wp) FROM V1 GROUP BY x ORDER BY x",
	"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
	"SELECT z, SUM(oilp), COUNT(*) FROM V1 GROUP BY z HAVING COUNT(*) > 10 ORDER BY z DESC LIMIT 2",
	"SELECT MIN(wp), MAX(wp) FROM V1",
	"SELECT COUNT(*) FROM V1 WHERE y < 2",
	"SELECT * FROM V2",
	"SELECT oilp FROM V2 ORDER BY oilp LIMIT 4",
	"SELECT * FROM T1 WHERE x = 0 AND y = 0",
	"SELECT oilp FROM T1 ORDER BY oilp DESC LIMIT 6",
	"SELECT x, AVG(oilp) FROM T1 GROUP BY x ORDER BY x LIMIT 3",
	"SELECT x, COUNT(*) FROM T1 GROUP BY x HAVING COUNT(*) >= 16 ORDER BY x",
	"SELECT COUNT(*) FROM T2",
	// Validation failures must surface on both paths.
	"SELECT nosuch FROM V1",
	"SELECT * FROM V1 ORDER BY nosuch",
	"SELECT wp FROM V1 ORDER BY x",
	"SELECT wp FROM V1 GROUP BY wp",
}

func goldenExecutor(t *testing.T, nj int, force string) *Executor {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return viewExecutor(t, ds.Catalog, ds.Stores, nj, force)
}

// viewExecutor serves a catalog of T1 and T2 on two storage nodes and nj
// compute nodes, with V1 (their join on x, y, z) and V2 (V1's x ≤ 4
// slice) defined, under the given forced engine ("" = the cost model).
func viewExecutor(t *testing.T, cat *metadata.Catalog, stores []simio.Store, nj int, force string) *Executor {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: nj, CacheBytes: 16 << 20,
	}, cat, stores)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cl)
	ex.Planner.AlphaBuild = 80e-9
	ex.Planner.AlphaLookup = 40e-9
	ex.Planner.Force = force
	if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Exec("CREATE VIEW V2 AS SELECT * FROM V1 WHERE x BETWEEN 0 AND 4"); err != nil {
		t.Fatal(err)
	}
	return ex
}

func goldenRows(st *tuple.SubTable) []string {
	if st == nil {
		return nil
	}
	buf := make([]float32, st.Schema.NumAttrs())
	var out []string
	for r := 0; r < st.NumRows(); r++ {
		out = append(out, fmt.Sprint(st.Row(r, buf)))
	}
	return out
}

// compareGolden asserts the streaming output equals the materialized one
// byte for byte. Both sides must have run the same engine: IJ's and GH's
// orders are each defined, but they differ.
func compareGolden(t *testing.T, sql string, want, got *Output) {
	t.Helper()
	if (want.Decision == nil) != (got.Decision == nil) ||
		(want.Decision != nil && want.Decision.Chosen != got.Decision.Chosen) {
		t.Fatalf("%s: the two runs chose different engines (%v vs %v)", sql, want.Decision, got.Decision)
	}
	wn, gn := want.Rows.Schema.Names(), got.Rows.Schema.Names()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("%s: schema %v, want %v", sql, gn, wn)
	}
	if want.Rows.ID != got.Rows.ID {
		t.Fatalf("%s: result ID %v, want %v", sql, got.Rows.ID, want.Rows.ID)
	}
	wr, gr := goldenRows(want.Rows), goldenRows(got.Rows)
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d rows, want %d", sql, len(gr), len(wr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("%s: row %d = %s, want %s", sql, i, gr[i], wr[i])
		}
	}
}

// runGoldenQuery executes one corpus query both ways; mutate (optional)
// adjusts the streaming plan's engine request before execution. Under the
// adaptive planner the first run's observed costs recalibrate the model,
// so the streaming run is pinned to the engine the materialized run chose.
func runGoldenQuery(t *testing.T, ex *Executor, sql string, mutate func(*Lowered)) {
	t.Helper()
	ex.Materialize = true
	want, wantErr := ex.Exec(sql)
	ex.Materialize = false
	if force := ex.Planner.Force; force == "" && want != nil && want.Decision != nil {
		ex.Planner.Force = want.Decision.Chosen
		defer func() { ex.Planner.Force = force }()
	}
	var got *Output
	var gotErr error
	if mutate == nil {
		got, gotErr = ex.Exec(sql)
	} else {
		var l *Lowered
		if l, gotErr = ex.Lower(sql); gotErr == nil {
			mutate(l)
			got, gotErr = ex.ExecLowered(context.Background(), l)
		}
	}
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: streaming err = %v, materialized err = %v", sql, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	compareGolden(t, sql, want, got)
}

// TestGoldenStreamingMatchesMaterialized is the tentpole's acceptance
// test: the full corpus through the streaming plan path must reproduce the
// materialized reference output at several compute-node counts, under both
// forced engines and under the cost-model choice.
func TestGoldenStreamingMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name  string
		nj    int
		force string
	}{
		{"ij-nj1", 1, "ij"},
		{"ij-nj3", 3, "ij"},
		{"gh-nj2", 2, "gh"},
		{"auto-nj2", 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := goldenExecutor(t, tc.nj, tc.force)
			for _, sql := range goldenCorpus {
				runGoldenQuery(t, ex, sql, nil)
			}
		})
	}
}

// assocTables stores T1(x, y, z, oilp) and T2(x, y, z, wp) over an 8×8×4
// grid in 4×4×2 chunks on both sides, so every chunk pair is an IJ
// component of its own and a GROUP BY x, y group spans two components:
// z 0–1 and z 2–3. Both measures are small fractions, except that every
// (0, y) group holds 1, 2^60 and -2^60, the two big values in one
// component and 1 in the other (which one alternates with y). A float64
// sum of them depends on the order it folds them in: (2^60+1)-2^60 is 0,
// (2^60-2^60)+1 is 1.
func assocTables(t *testing.T) (*metadata.Catalog, []simio.Store) {
	const big = 1 << 60
	return handJoinTables(t, [2]string{"oilp", "wp"},
		func(c int) (lo, hi [3]int) {
			lo = [3]int{4 * (c % 2), 4 * (c / 2 % 2), 2 * (c / 4)}
			return lo, [3]int{lo[0] + 4, lo[1] + 4, lo[2] + 2}
		},
		func(_, x, y, z int) float32 {
			if x == 0 {
				if y%2 == 1 {
					z ^= 2 // the big values first, in z 0–1
				}
				return []float32{1, 0, big, -big}[z]
			}
			return float32((x*7+y*3+z*5)%16) / 16
		})
}

// TestIJOrderIndependentOfNodeCount: IJ's output releases one connected
// component per compute node in turn — the order stage 1 dealt them in —
// so a row query returns the same rows in the same order on one compute
// node as on three, and a LIMIT without ORDER BY returns the head of the
// one-node schedule whatever the cluster size. GROUP BY folds its rows in
// that release order, so aggregates are the same bits too, also on
// assocTables, where a sum shows the order its rows fold in.
func TestIJOrderIndependentOfNodeCount(t *testing.T) {
	aggs := []string{
		"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
		"SELECT x, y, COUNT(*), SUM(oilp) FROM V1 GROUP BY x, y ORDER BY x, y",
		"SELECT x, y, SUM(wp) FROM V1 GROUP BY x, y HAVING SUM(wp) > 0.5 ORDER BY x, y",
	}
	assoc := func(t *testing.T, nj int) *Executor {
		cat, stores := assocTables(t)
		return viewExecutor(t, cat, stores, nj, "ij")
	}
	for _, ds := range []struct {
		name  string
		newEx func(t *testing.T, nj int) *Executor
		sqls  []string
	}{
		{"oilres", func(t *testing.T, nj int) *Executor { return goldenExecutor(t, nj, "ij") }, append([]string{
			"SELECT * FROM V1",
			"SELECT * FROM V1 WHERE x BETWEEN 0 AND 3 AND z = 0",
			"SELECT wp, oilp FROM V1 WHERE z = 1",
			"SELECT * FROM V1 LIMIT 40",
			"SELECT * FROM V2",
		}, aggs...)},
		{"assoc", assoc, aggs},
	} {
		one, three := ds.newEx(t, 1), ds.newEx(t, 3)
		for _, sql := range ds.sqls {
			for _, materialize := range []bool{false, true} {
				one.Materialize, three.Materialize = materialize, materialize
				want, err := one.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				got, err := three.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				compareGolden(t, fmt.Sprintf("%s: %s (materialize=%v)", ds.name, sql, materialize), want, got)
			}
		}
	}
}

// TestGoldenPrefetchAndParallelism: prefetch and the kernel width
// (GOMAXPROCS) change scheduling, never bytes — streaming output with
// either set must equal the default materialized output.
func TestGoldenPrefetchAndParallelism(t *testing.T) {
	ex := goldenExecutor(t, 3, "ij")
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	knobs := []struct {
		name     string
		prefetch int
		procs    int
	}{
		{"prefetch2", 2, 1},
		{"parallel2", 0, 2},
		{"prefetch2-parallel2", 2, 2},
		{"parallel4", 0, 4},
	}
	corpus := []string{
		"SELECT * FROM V1",
		"SELECT * FROM V1 ORDER BY x, y, z LIMIT 9",
		"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
	}
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			runtime.GOMAXPROCS(k.procs)
			for _, sql := range corpus {
				runGoldenQuery(t, ex, sql, func(l *Lowered) {
					if l.Join != nil {
						l.Join.In.Req.Prefetch = k.prefetch
					}
				})
			}
		})
	}
}

// TestGoldenUnderChaos re-runs a corpus slice with fault injection: the
// streaming sink's commit-on-Done buffering must keep replayed parts
// byte-invisible, so faulted streaming output equals faulted materialized
// output. Each run gets a fresh cluster (fresh op-counted injector) over
// the same replicated dataset, like the chaos suite does.
func TestGoldenUnderChaos(t *testing.T) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(4, 4, 2), RightPart: partition.D(2, 2, 4),
		StorageNodes: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := oilres.Replicate(ds.Catalog, ds.Stores, 2); err != nil {
		t.Fatal(err)
	}
	newEx := func(t *testing.T, force, faults string) *Executor {
		inj, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			StorageNodes: 3, ComputeNodes: 3, CacheBytes: 32 << 20,
			Faults:           inj,
			Retry:            retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
			BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
		}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cl)
		ex.Planner.AlphaBuild = 80e-9
		ex.Planner.AlphaLookup = 40e-9
		ex.Planner.Force = force
		if _, err := ex.Exec("CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
			t.Fatal(err)
		}
		return ex
	}
	cases := []struct {
		name   string
		force  string
		faults string
		corpus []string
	}{
		{
			name: "ij", force: "ij",
			faults: "crash:storage-1:fetch:5,crash:compute-0:edge:3",
			corpus: []string{
				"SELECT * FROM V1",
				"SELECT * FROM V1 ORDER BY x, y, z LIMIT 20",
				"SELECT * FROM V1 LIMIT 10",
				"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
			},
		},
		{
			name: "gh", force: "gh",
			faults: "crash:storage-1:fetch:5,crash:compute-0:write:3",
			corpus: []string{
				"SELECT * FROM V1",
				"SELECT * FROM V1 LIMIT 10",
				"SELECT x, COUNT(*), MIN(wp), MAX(wp) FROM V1 GROUP BY x ORDER BY x",
				"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sql := range tc.corpus {
				// Fresh clusters per run: the injector schedule is op-counted,
				// so materialized and streaming runs see identical faults.
				mat := newEx(t, tc.force, tc.faults)
				mat.Materialize = true
				want, wantErr := mat.Exec(sql)
				str := newEx(t, tc.force, tc.faults)
				got, gotErr := str.Exec(sql)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("%s: materialized err = %v, streaming err = %v", sql, wantErr, gotErr)
				}
				compareGolden(t, sql, want, got)
			}
		})
	}
}

// TestConcurrentViewDefineAndSelect exercises the executor's views map
// from many goroutines (run under -race): CREATE VIEW racing SELECTs used
// to be an unsynchronized map access.
func TestConcurrentViewDefineAndSelect(t *testing.T) {
	ex := testExecutor(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("CV%d", i)
			if _, err := ex.Exec(fmt.Sprintf(
				"CREATE VIEW %s AS SELECT * FROM T1 JOIN T2 ON (x, y, z)", name)); err != nil {
				t.Error(err)
				return
			}
			if _, err := ex.Exec("SELECT COUNT(*) FROM " + name); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestExplainStatement: EXPLAIN renders the plan tree with the pushdown
// and the cost-model breakdown without executing anything.
func TestExplainStatement(t *testing.T) {
	ex := goldenExecutor(t, 2, "")
	out, err := ex.Exec("EXPLAIN SELECT wp FROM V1 WHERE x < 3 ORDER BY wp LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != nil {
		t.Error("EXPLAIN executed the query")
	}
	for _, wantSub := range []string{
		"Limit(5)", "Sort(wp)", "top-k: 5 rows, resident 20 B", "Project(wp)", "Join[", "cost: ij=", "chose=", "calib=", "Scan(T1)", "Scan(T2)", "project[",
	} {
		if !strings.Contains(out.Explain, wantSub) {
			t.Errorf("explain output missing %q:\n%s", wantSub, out.Explain)
		}
	}
	if out.Decision == nil {
		t.Error("EXPLAIN of a join query should carry the decision")
	}

	// A bound that fits the Sort's budget share reports in-mem whatever
	// the input size; without the LIMIT the same sort goes external.
	ex.MemBudget = 2 << 10
	for sql, want := range map[string]string{
		"EXPLAIN SELECT * FROM V1 ORDER BY wp LIMIT 5": "top-k: 5 rows, resident 100 B\n   │    spill: budget=1.0 KiB est=100 B mode=in-mem",
		"EXPLAIN SELECT * FROM V1 ORDER BY wp":         "Sort(wp)\n│    spill: budget=1.0 KiB est=5.0 KiB mode=external",
	} {
		if out, err = ex.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.Explain, want) {
			t.Errorf("%s: missing %q:\n%s", sql, want, out.Explain)
		}
	}
	ex.MemBudget = 0

	out, err = ex.Exec("EXPLAIN SELECT COUNT(*) FROM T1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Explain, "Scan(T1)") || !strings.Contains(out.Explain, "Aggregate(COUNT(*))") {
		t.Errorf("scan explain:\n%s", out.Explain)
	}
}
