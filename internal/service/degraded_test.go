package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/planner"
)

// TestDegradedAdmissionSQL is the admission-control regression test for
// out-of-core execution: a SQL query whose resident estimate exceeds the
// service budget used to be clamped to run alone at full memory width.
// Now it must be admitted in degraded mode — plan stamped with one
// slot's share of the budget, charged the (smaller) degraded estimate,
// blocking operators spilling to scratch — with rows identical to the
// unbudgeted reference.
func TestDegradedAdmissionSQL(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget = 1 << 10
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}
	ref := svc.Executor()
	ref.Materialize = true
	if _, err := ref.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT x, y, COUNT(*), MIN(wp) FROM V GROUP BY x, y ORDER BY x DESC, y"
	want, err := ref.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.SubmitSQL(context.Background(), ex, SQL{Query: q})
	if err != nil {
		t.Fatalf("over-budget query rejected instead of degraded: %v", err)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded; the estimate should exceed the 1 KiB budget")
	}
	if resp.Weight > budget {
		t.Errorf("degraded weight %d exceeds the budget %d", resp.Weight, budget)
	}
	assertSameTable(t, q, want.Rows, resp.Rows)

	// The old clamp ran the query fully in memory; degraded admission must
	// actually push work to scratch.
	if resp.Result == nil {
		t.Fatal("degraded run carried no engine result")
	}
	var spillBytes, spillParts int64
	for _, st := range resp.Result.Operators {
		spillBytes += st.SpillBytes
		spillParts += st.SpillParts
	}
	if spillBytes == 0 || spillParts == 0 {
		t.Errorf("degraded run recorded no spill (bytes=%d parts=%d): %+v",
			spillBytes, spillParts, resp.Result.Operators)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Errorf("stats degraded = %d, want 1 (%+v)", st.Degraded, st)
	}
}

// TestDegradedAdmissionRaw: the raw (cost-model-weighted) submission path
// degrades the same way — the request is stamped with the share and the
// engine bounds its build sides with scratch round-trips.
func TestDegradedAdmissionRaw(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget = 512
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()

	resp, err := svc.Submit(context.Background(), Query{Req: testReq()})
	if err != nil {
		t.Fatalf("over-budget raw query rejected instead of degraded: %v", err)
	}
	if !resp.Degraded {
		t.Error("raw response not marked degraded")
	}
	if resp.Weight > budget {
		t.Errorf("degraded weight %d exceeds the budget %d", resp.Weight, budget)
	}
	if resp.Result.Observed.SpillWriteBytes == 0 || resp.Result.Observed.SpillReadBytes == 0 {
		t.Errorf("degraded engine run recorded no spill traffic: %+v", resp.Result.Observed)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Errorf("stats degraded = %d, want 1 (%+v)", st.Degraded, st)
	}
}

// TestStrictRejectsOverBudget: Strict restores the historical behavior —
// an over-budget estimate is rejected with ErrOverBudget on both
// submission paths, never silently degraded.
func TestStrictRejectsOverBudget(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	svc := newService(cl, Config{MaxInFlight: 4, MemoryBudget: 512, Strict: true, Force: "ij"})
	defer svc.Close()
	ex := svc.Executor()
	if _, err := ex.Exec("CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Submit(context.Background(), Query{Req: testReq()}); !errors.Is(err, ErrOverBudget) {
		t.Errorf("strict raw submit: err = %v, want ErrOverBudget", err)
	}
	if _, err := svc.SubmitSQL(context.Background(), ex,
		SQL{Query: "SELECT * FROM V ORDER BY x, y, z"}); !errors.Is(err, ErrOverBudget) {
		t.Errorf("strict SQL submit: err = %v, want ErrOverBudget", err)
	}
	st := svc.Stats()
	if st.Degraded != 0 {
		t.Errorf("strict mode counted %d degraded admissions", st.Degraded)
	}
	if st.Rejected != 2 {
		t.Errorf("strict mode counted %d rejections, want 2", st.Rejected)
	}
}

// TestDegradedWaitersRunSideBySide is the white-box admission check: a
// degraded job is weighed at one slot's share of the budget, so with
// MaxInFlight 2 two of them are admitted by one dispatch and their summed
// charge stays within the budget.
func TestDegradedWaitersRunSideBySide(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget = 1 << 20
	svc := newService(cl, Config{MaxInFlight: 2, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()

	var ws []*waiter
	for range 2 {
		// Estimated far above the budget, and degraded to an estimate
		// still above the share: the charge is capped at the share.
		weight, degraded, err := svc.weigh(job{
			weight:  4 * budget,
			degrade: func(share int64) int64 { return 3 * share },
		})
		if err != nil || !degraded {
			t.Fatalf("weigh: degraded=%v err=%v, want a degraded job", degraded, err)
		}
		if weight > budget/2 {
			t.Errorf("degraded charge %d exceeds one slot's share %d", weight, budget/2)
		}
		ws = append(ws, &waiter{weight: weight, degraded: true, ready: make(chan struct{})})
	}
	svc.mu.Lock()
	for _, w := range ws {
		svc.seq++
		w.seq = svc.seq
		heap.Push(&svc.queue, w)
	}
	svc.dispatchLocked()
	inflight, used := svc.inflight, svc.memUsed
	svc.mu.Unlock()
	for i, w := range ws {
		if !w.admitted {
			t.Errorf("degraded waiter %d still queued beside the other", i)
			continue
		}
		svc.finish(w, 0, nil, false)
	}
	if inflight != 2 || used > budget {
		t.Errorf("after dispatch: %d in flight charging %d B, want 2 within %d B", inflight, used, budget)
	}
}

// TestDegradedChargeIsOneSlotsShare: on both submission paths a degraded
// statement is charged at most MemoryBudget / MaxInFlight, while two
// clients run such statements concurrently, and its rows equal the
// unbudgeted run's.
func TestDegradedChargeIsOneSlotsShare(t *testing.T) {
	cl := makeCluster(t, 2, 2, 32<<20, 0)
	const budget, slots = 4 << 10, 2
	svc := newService(cl, Config{MaxInFlight: slots, MemoryBudget: budget, Force: "ij"})
	defer svc.Close()
	ref := newService(cl, Config{MaxInFlight: slots, Force: "ij"})
	defer ref.Close()
	const view = "CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"
	ex, rex := svc.Executor(), ref.Executor()
	for _, e := range []*planner.Executor{ex, rex} {
		if _, err := e.Exec(view); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []string{
		"SELECT x, y, z, MIN(wp) FROM V GROUP BY x, y, z ORDER BY x, y, z",
		"SELECT * FROM V ORDER BY wp DESC, x, y, z",
	} {
		want, err := rex.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		resps := make([]*Response, slots)
		errs := make([]error, slots)
		for i := range slots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i], errs[i] = svc.SubmitSQL(context.Background(), ex, SQL{Query: q})
			}()
		}
		wg.Wait()
		for i, resp := range resps {
			if errs[i] != nil {
				t.Fatalf("%s [%d]: %v", q, i, errs[i])
			}
			if !resp.Degraded || resp.Weight > budget/slots {
				t.Errorf("%s [%d]: degraded=%v weight=%d, want degraded within %d",
					q, i, resp.Degraded, resp.Weight, budget/slots)
			}
			assertSameTable(t, q, want.Rows, resp.Rows)
		}
	}

	req := testReq()
	req.Collect = true
	wantRaw, err := ref.Submit(context.Background(), Query{Req: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Submit(context.Background(), Query{Req: req})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Weight > budget/slots {
		t.Errorf("raw: degraded=%v weight=%d, want degraded within %d", resp.Degraded, resp.Weight, budget/slots)
	}
	if got, want := collectedRows(resp.Result), collectedRows(wantRaw.Result); len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("raw degraded run: %d rows differ from the unbudgeted %d", len(got), len(want))
	}
}

// collectedRows renders every collected result row, joiner by joiner.
func collectedRows(res *engine.Result) []string {
	var rows []string
	for _, st := range res.Collected {
		row := make([]float32, st.Schema.NumAttrs())
		for r := range st.NumRows() {
			rows = append(rows, fmt.Sprint(st.Row(r, row)))
		}
	}
	return rows
}
