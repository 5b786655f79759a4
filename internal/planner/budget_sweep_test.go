package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sciview/internal/plan"
	"sciview/internal/scratch"
)

// The budget-sweep differential harness: out-of-core execution must be an
// implementation detail. Every query's output at every budget — from
// everything-fits down to a few batches of scratch — must equal the
// unbudgeted output byte for byte, and the spill machinery it exercised
// must be visible in the operator stats, never in the rows.

// sweepBudgets spans the degradation range over the golden dataset (~256
// join rows): 1 GiB fits everything (budget stamped, mode in-mem), 16 KiB
// forces the wide sorts external, 1 KiB forces sort, grouped aggregation
// and the join build side all out-of-core at once.
var sweepBudgets = []int64{1 << 30, 16 << 10, 1 << 10}

// sweepCorpus is the golden corpus plus seeded-random queries: filtered
// scans under a total order, grouped aggregates, and measure sorts with
// unique tie-breaks.
func sweepCorpus() []string {
	qs := append([]string(nil), goldenCorpus...)
	// One group per join row: the spilling GROUP BY's output is as large
	// as its input. Without ORDER BY, the rows keep the aggregate's own
	// group-key order, which its run merge must reproduce.
	qs = append(qs,
		"SELECT x, y, z, MIN(wp) FROM V1 GROUP BY x, y, z ORDER BY x, y, z",
		"SELECT y, x, z, MAX(wp) FROM V1 GROUP BY y, x, z")
	rng := rand.New(rand.NewSource(0x5eed))
	dims := []string{"x", "y", "z"}
	for i := 0; i < 6; i++ {
		switch rng.Intn(3) {
		case 0:
			d := dims[rng.Intn(len(dims))]
			lo := rng.Intn(4)
			sql := fmt.Sprintf(
				"SELECT * FROM V1 WHERE %s BETWEEN %d AND %d ORDER BY x, y, z LIMIT %d",
				d, lo, lo+rng.Intn(4), 1+rng.Intn(40))
			qs = append(qs, sql)
		case 1:
			g := dims[rng.Intn(len(dims))]
			sql := fmt.Sprintf(
				"SELECT %s, COUNT(*), MIN(wp), MAX(oilp), AVG(oilp) FROM V1 GROUP BY %s ORDER BY %s",
				g, g, g)
			qs = append(qs, sql)
		default:
			// (x, y, z) is a join key, so the tie-break is total.
			sql := fmt.Sprintf(
				"SELECT x, y, z, wp FROM V1 ORDER BY wp DESC, x, y, z LIMIT %d",
				1+rng.Intn(30))
			qs = append(qs, sql)
		}
	}
	return qs
}

// TestDifferentialBudgetSweep runs the sweep corpus at every budget against
// the same executor's unbudgeted output, byte for byte under either
// engine, and holds every Sort and Aggregate to its budget (checkPeaks).
func TestDifferentialBudgetSweep(t *testing.T) {
	cases := []struct {
		name  string
		nj    int
		force string
	}{
		{"ij-nj2", 2, "ij"},
		{"gh-nj2", 2, "gh"},
	}
	corpus := sweepCorpus()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := goldenExecutor(t, tc.nj, tc.force)
			for _, sql := range corpus {
				ex.MemBudget = 0
				want, wantErr := ex.Exec(sql)
				for _, budget := range sweepBudgets {
					ex.MemBudget = budget
					got, gotErr := ex.Exec(sql)
					if (wantErr != nil) != (gotErr != nil) {
						t.Fatalf("%s @ budget %d: err = %v, unbudgeted err = %v",
							sql, budget, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					compareGolden(t, sql, want, got)
					checkPeaks(t, ex, sql, budget, want, got)
				}
			}
		})
	}
}

// emitRows is the row count of an external Sort's or Aggregate's output
// batch (plan.sortEmitRows).
const emitRows = 4096

// checkPeaks holds every Sort and Aggregate of a budgeted run to its
// budget share: PeakBytes ≤ share + one emitted batch + fanout ×
// BlockBytes (a partitioner's staging). A spilling operator must also
// never peak above its unbudgeted run's operator.
func checkPeaks(t *testing.T, ex *Executor, sql string, budget int64, want, got *Output) {
	t.Helper()
	if got.Result == nil || want.Result == nil {
		return // no join: the executor reports no operator stats
	}
	l, err := ex.Lower(sql)
	if err != nil {
		t.Fatal(err)
	}
	var share int64
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch t := n.(type) {
		case *plan.SortNode:
			share = max(share, t.SpillBudget)
		case *plan.AggregateNode:
			share = max(share, t.SpillBudget)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(l.Plan.Root)
	ops, ref := got.Result.Operators, want.Result.Operators
	if len(ops) != len(ref) {
		t.Fatalf("%s @ budget %d: %d operators, unbudgeted %d", sql, budget, len(ops), len(ref))
	}
	for i, st := range ops {
		if !strings.HasPrefix(st.Op, "Sort") && !strings.HasPrefix(st.Op, "Aggregate") {
			continue
		}
		batch := st.Bytes
		if st.Rows > emitRows {
			batch = emitRows * (st.Bytes / st.Rows)
		}
		if bound := share + batch + aggFanout*scratch.BlockBytes; st.PeakBytes > bound {
			t.Errorf("%s @ budget %d: %s peaks at %d B, over its bound %d (share %d + batch %d + staging)",
				sql, budget, st.Op, st.PeakBytes, bound, share, batch)
		}
		if st.SpillParts > 0 && st.PeakBytes > ref[i].PeakBytes {
			t.Errorf("%s @ budget %d: spilling %s peaks at %d B, above its unbudgeted %d B",
				sql, budget, st.Op, st.PeakBytes, ref[i].PeakBytes)
		}
	}
}

// aggFanout is the spilling GROUP BY's partitions per split.
const aggFanout = 8

// TestBudgetSweepSpillsAllOperators pins the degradation floor: at the
// smallest sweep budget a sort + grouped-aggregate + join query must push
// all three blocking operators out-of-core in a single run — visible in
// the per-operator spill counters — while the rows stay identical to the
// unbudgeted run.
func TestBudgetSweepSpillsAllOperators(t *testing.T) {
	const sql = "SELECT x, y, COUNT(*), MIN(wp) FROM V1 GROUP BY x, y ORDER BY x DESC, y"
	ex := goldenExecutor(t, 2, "ij")
	ex.MemBudget = 0
	want, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex.MemBudget = sweepBudgets[len(sweepBudgets)-1]
	got, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, sql, want, got)

	if got.Result == nil {
		t.Fatal("budgeted run carried no engine result")
	}
	spilled := map[string]bool{}
	for _, st := range got.Result.Operators {
		kind := st.Op
		if k := strings.IndexByte(kind, '('); k >= 0 {
			kind = kind[:k]
		}
		switch {
		case strings.HasPrefix(kind, "Sort"):
			if st.SpillBytes > 0 && st.SpillParts > 0 {
				spilled["sort"] = true
			}
		case strings.HasPrefix(kind, "Aggregate"):
			if st.SpillBytes > 0 && st.SpillParts > 0 {
				spilled["aggregate"] = true
			}
		case strings.HasPrefix(kind, "Join"):
			if st.SpillBytes > 0 && st.SpillReadBytes > 0 {
				spilled["join"] = true
			}
		}
	}
	for _, op := range []string{"sort", "aggregate", "join"} {
		if !spilled[op] {
			t.Errorf("budget %d: %s did not spill; operator stats: %+v",
				sweepBudgets[len(sweepBudgets)-1], op, got.Result.Operators)
		}
	}

	// The unbudgeted reference must not have spilled anything.
	if want.Result != nil {
		for _, st := range want.Result.Operators {
			if st.SpillBytes != 0 || st.SpillParts != 0 {
				t.Errorf("unbudgeted run spilled: %+v", st)
			}
		}
	}
}

// TestExplainSpillAnnotations: budget-stamped plans render the spill line
// on every spill-capable operator, with the mode the estimate selects.
func TestExplainSpillAnnotations(t *testing.T) {
	ex := goldenExecutor(t, 2, "ij")
	const sql = "EXPLAIN SELECT x, COUNT(*) FROM V1 GROUP BY x ORDER BY x"

	out, err := ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Explain, "spill:") {
		t.Errorf("unbudgeted explain has a spill line:\n%s", out.Explain)
	}

	ex.MemBudget = 1 << 10
	out, err = ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.Explain, "spill: budget="); n != 3 {
		t.Errorf("budgeted explain has %d spill lines, want 3 (sort, aggregate, join):\n%s", n, out.Explain)
	}
	if !strings.Contains(out.Explain, "mode=external") {
		t.Errorf("1 KiB budget over ~256 join rows should show an external mode:\n%s", out.Explain)
	}

	ex.MemBudget = 1 << 30
	out, err = ex.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Explain, "mode=external") {
		t.Errorf("1 GiB budget should keep every operator in-mem:\n%s", out.Explain)
	}
}
