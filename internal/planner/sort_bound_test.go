package planner

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/plan"
)

// The bounded-Sort differential: a LIMIT directly over an ORDER BY lets
// the Sort keep only its first k rows. That must be invisible in the
// rows — equal to the materialized oracle and to the same plan with the
// bound taken off again — for every k around the input size, any key
// list, either engine, any source beneath the Sort and any budget.

// boundCorpus is Sort over Join, over Aggregate and over Scan with one to
// five keys. Heavy ties (ORDER BY x alone) make the head under a LIMIT the
// arrival order's: defined under either engine.
var boundCorpus = []string{
	"SELECT * FROM V1 ORDER BY x",
	"SELECT x, y FROM V1 ORDER BY y DESC, x",
	"SELECT * FROM V1 ORDER BY wp DESC, x, y, z",
	"SELECT * FROM V1 ORDER BY z DESC, y, x DESC, wp, oilp DESC",
	"SELECT x, y, COUNT(*), MIN(wp) FROM V1 GROUP BY x, y ORDER BY x DESC, y",
	"SELECT x, y, COUNT(*) FROM V1 GROUP BY x, y ORDER BY x",
	"SELECT * FROM T1 ORDER BY x",
	"SELECT oilp, x FROM T1 ORDER BY oilp DESC, x",
}

// sortUnder returns the plan's Sort and the number of operators its
// budget is shared among.
func sortUnder(t *testing.T, l *Lowered) (*plan.SortNode, int64) {
	t.Helper()
	var sn *plan.SortNode
	var spillers int64
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch v := n.(type) {
		case *plan.SortNode:
			sn = v
			spillers++
		case *plan.JoinNode:
			spillers++
		case *plan.AggregateNode:
			if len(v.GroupBy) > 0 {
				spillers++
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(l.Plan.Root)
	if sn == nil {
		t.Fatalf("no Sort in plan:\n%s", l.Plan.Explain())
	}
	return sn, spillers
}

// sortStat returns the Sort's operator stats from a join-backed run.
func sortStat(t *testing.T, out *Output) engine.OpStat {
	t.Helper()
	for _, st := range out.Result.Operators {
		if strings.HasPrefix(st.Op, "Sort(") {
			return st
		}
	}
	t.Fatalf("no Sort operator stat in %+v", out.Result.Operators)
	return engine.OpStat{}
}

func TestDifferentialSortBound(t *testing.T) {
	for _, force := range []string{"ij", "gh"} {
		t.Run(force, func(t *testing.T) {
			ex := goldenExecutor(t, 2, force)
			for _, sql := range boundCorpus {
				all, err := ex.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				n := all.Rows.NumRows()
				for _, k := range []int{0, 1, 2, n - 1, n, n + 1} {
					lq := fmt.Sprintf("%s LIMIT %d", sql, k)
					ex.Materialize = true
					want, err := ex.Exec(lq)
					ex.Materialize = false
					if err != nil {
						t.Fatal(err)
					}
					probe, err := ex.Lower(lq)
					if err != nil {
						t.Fatal(err)
					}
					sn, spillers := sortUnder(t, probe)
					if sn.Bound != k {
						t.Fatalf("%s: Sort bound = %d, want %d", lq, sn.Bound, k)
					}
					need := int64(k) * int64(sn.Schema().RecordSize())
					// Unbounded; a share the k rows fit exactly; one a byte
					// short of them; 1 KiB over everything.
					for _, budget := range []int64{0, need * spillers, (need - 1) * spillers, 1 << 10} {
						if budget < 0 {
							continue
						}
						run := func(bounded bool) *Output {
							l, err := ex.Lower(lq)
							if err != nil {
								t.Fatal(err)
							}
							if !bounded {
								s, _ := sortUnder(t, l)
								s.Bound = 0
							}
							l.Plan.SetBudget(budget)
							out, err := ex.ExecLowered(context.Background(), l)
							if err != nil {
								t.Fatalf("%s @ budget %d: %v", lq, budget, err)
							}
							return out
						}
						got := run(true)
						compareGolden(t, lq, want, got)
						compareGolden(t, lq, run(false), got)
					}
				}
			}
		})
	}
}

// TestBoundedSortCounts pins what the bound buys in counts that cannot be
// noisy: whenever the k rows fit, the Sort holds at most 2·k·rec (its
// buffer when it cuts) and never touches scratch; when they do not, it spills, still
// emits exactly k rows, and its scratch files are gone after Close.
func TestBoundedSortCounts(t *testing.T) {
	const sql = "SELECT * FROM V1 ORDER BY wp DESC, x, y, z LIMIT 100"
	const k, rec = 100, 20
	for _, budget := range []int64{0, 1 << 20, 2 * k * rec} {
		ex, stores, _ := reapExecutor(t, budget, "")
		l, err := ex.Lower(sql)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ex.ExecLowered(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		st := sortStat(t, out)
		if st.Rows != k || st.SpillBytes != 0 || st.SpillParts != 0 || st.PeakBytes > 2*k*rec {
			t.Errorf("budget %d: bound fits, Sort stat %+v", budget, st)
		}
		auditReaped(t, fmt.Sprintf("bound fits budget %d", budget), stores)
	}

	// The share (half the budget: Sort + Join) is below k·rec = 2000 B.
	ex, stores, _ := reapExecutor(t, 1<<10, "")
	l, err := ex.Lower(sql)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.ExecLowered(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	st := sortStat(t, out)
	if st.Rows != k || st.SpillParts == 0 || st.SpillBytes == 0 {
		t.Errorf("bound does not fit, Sort stat %+v", st)
	}
	auditReaped(t, "bound does not fit", stores)
}
