package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sciview/internal/metrics"
	"sciview/internal/tuple"
)

// gateSink parks a running query in its first Emit until the gate opens
// or ctx ends, so a test holds an execution slot for exactly as long as it
// wants — no slow disks, no sleeps.
type gateSink struct {
	ctx  context.Context
	open chan struct{}
}

func (g gateSink) Emit(int, *tuple.SubTable, bool) error {
	select {
	case <-g.open:
		return nil
	case <-g.ctx.Done():
		return g.ctx.Err()
	}
}
func (gateSink) Done(int)              {}
func (gateSink) Discard(int)           {}
func (gateSink) Free() *tuple.SubTable { return nil }

// submitAsync submits a raw query in the background. With hold set the
// query parks mid-join until the returned release is called (or ctx ends).
func submitAsync(ctx context.Context, svc *Service, hold bool) (release func(), done <-chan error) {
	req := testReq()
	open := make(chan struct{})
	if hold {
		req.Sink = gateSink{ctx: ctx, open: open}
	}
	ch := make(chan error, 1)
	go func() {
		_, err := svc.Submit(ctx, Query{Req: req})
		ch <- err
	}()
	return func() { close(open) }, ch
}

func waitQueued(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueLen() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue length never reached %d (at %d)", n, s.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
}

// assertRegistryMatchesStats checks sciview_queries_total{outcome=…}
// against Stats for all seven outcomes.
func assertRegistryMatchesStats(t *testing.T, reg *metrics.Registry, svc *Service) {
	t.Helper()
	st := svc.Stats()
	want := map[string]int64{
		"submitted": st.Submitted, "admitted": st.Admitted, "rejected": st.Rejected,
		"cancelled": st.Cancelled, "completed": st.Completed, "failed": st.Failed,
		"degraded": st.Degraded,
	}
	seen := 0
	for _, s := range reg.Snapshot() {
		outcome, ok := strings.CutPrefix(s.Name, `sciview_queries_total{outcome="`)
		if !ok {
			continue
		}
		outcome = strings.TrimSuffix(outcome, `"}`)
		seen++
		if int64(s.Value) != want[outcome] {
			t.Errorf("registry %s = %d, Stats has %d (%+v)", s.Name, int64(s.Value), want[outcome], st)
		}
	}
	if seen != len(want) {
		t.Errorf("registry exposes %d outcome series, want %d", seen, len(want))
	}
}

// TestOutcomeCountersMatchStats drives one service through every admission
// outcome — completed, cancelled in the queue, cancelled while running,
// queue full, closed while queued, closed at submission, all at the
// degraded weight — and a strict one through over-budget rejection. Two
// accounting rules are pinned on the way: Degraded counts admissions, so a
// degraded-weight submission that never gets a slot is not in it; and a
// waiter Close drains out of the queue is a rejection in the registry as
// well as in Stats.
func TestOutcomeCountersMatchStats(t *testing.T) {
	bg := context.Background()
	cl := makeCluster(t, 2, 1, 32<<20, 0)
	reg := metrics.NewRegistry()
	// Budget far below any estimate: every submission is weighed degraded.
	svc := newService(cl, Config{MaxInFlight: 1, MaxQueue: 1, MemoryBudget: 512, Force: "ij", Metrics: reg})

	release1, done1 := submitAsync(bg, svc, true)
	waitInFlight(t, svc, 1)
	ctx2, cancel2 := context.WithCancel(bg)
	defer cancel2()
	_, done2 := submitAsync(ctx2, svc, false)
	waitQueued(t, svc, 1)
	if _, err := svc.Submit(bg, Query{Req: testReq()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-in-queue submission: err = %v, want context.Canceled", err)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Errorf("Degraded = %d after one admission, one queue-full and one cancel-in-queue, want 1", st.Degraded)
	}
	release1()
	if err := <-done1; err != nil {
		t.Fatalf("held query: %v", err)
	}

	ctx4, cancel4 := context.WithCancel(bg)
	defer cancel4()
	_, done4 := submitAsync(ctx4, svc, true)
	waitInFlight(t, svc, 1)
	cancel4()
	if err := <-done4; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-running submission: err = %v, want context.Canceled", err)
	}

	release5, done5 := submitAsync(bg, svc, true)
	waitInFlight(t, svc, 1)
	_, done6 := submitAsync(bg, svc, false)
	waitQueued(t, svc, 1)
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	if err := <-done6; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued submission during Close: err = %v, want ErrClosed", err)
	}
	release5()
	if err := <-done5; err != nil {
		t.Fatalf("in-flight query during Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(bg, Query{Req: testReq()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submission after Close: err = %v, want ErrClosed", err)
	}

	st := svc.Stats()
	got := [7]int64{st.Submitted, st.Admitted, st.Rejected, st.Cancelled, st.Completed, st.Failed, st.Degraded}
	if want := [7]int64{5, 3, 3, 2, 2, 0, 3}; got != want {
		t.Errorf("submitted/admitted/rejected/cancelled/completed/failed/degraded = %v, want %v", got, want)
	}
	assertRegistryMatchesStats(t, reg, svc)

	strictReg := metrics.NewRegistry()
	strict := newService(cl, Config{MemoryBudget: 512, Strict: true, Force: "ij", Metrics: strictReg})
	defer strict.Close()
	if _, err := strict.Submit(bg, Query{Req: testReq()}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("strict submission: err = %v, want ErrOverBudget", err)
	}
	if st := strict.Stats(); st.Rejected != 1 || st.Degraded != 0 {
		t.Errorf("strict: rejected %d degraded %d, want 1 and 0", st.Rejected, st.Degraded)
	}
	assertRegistryMatchesStats(t, strictReg, strict)
}
