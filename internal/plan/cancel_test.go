package plan

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/leakcheck"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

// partFunc is one part's producer. Returning nil completes the part
// (Done); an error leaves it incomplete, as a joiner that observed
// ctx.Err() mid-schedule does.
type partFunc func(ctx context.Context, part int, sink engine.Sink) error

// stubEngine has the engines' run shape — one goroutine per part, a
// WaitGroup barrier, first error wins — with scripted parts, so a test
// decides exactly where each producer stands when the cancel lands.
type stubEngine struct{ parts []partFunc }

func (e *stubEngine) Name() string { return "stub" }

func (e *stubEngine) Run(ctx context.Context, _ *cluster.Cluster, in *engine.Inputs) (*engine.Result, error) {
	req := in.Req
	errs := make([]error, len(e.parts))
	var wg sync.WaitGroup
	for p, run := range e.parts {
		wg.Add(1)
		go func(p int, run partFunc) {
			defer wg.Done()
			if errs[p] = run(ctx, p, req.Sink); errs[p] == nil {
				req.Sink.Done(p)
			}
		}(p, run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &engine.Result{Engine: e.Name()}, nil
}

// TestCancelMidJoin cancels the caller's context (not the operator's own
// Close) with producers and consumer parked at each spot of the reorder
// sink: Run must return the context's error and every engine goroutine
// must exit. Before the sink observed the join context this deadlocked:
// the stalled head part returns without Done, a later part sits in Emit
// behind the full buffer, the engine's barrier never falls, finish never
// runs and the consumer waits in next forever.
func TestCancelMidJoin(t *testing.T) {
	// ready collects one token per part once it stands where the case
	// wants it; the cancel fires after all of them.
	var ready chan struct{}

	// stalled emits n batches, then waits out the context the way a joiner
	// blocked in a fetch does.
	stalled := func(n int) partFunc {
		return func(ctx context.Context, part int, sink engine.Sink) error {
			for i := 0; i < n; i++ {
				if err := sink.Emit(part, testBatch(int32(part), float32(i)), true); err != nil {
					return err
				}
			}
			ready <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		}
	}
	// flooding emits until the sink refuses, never looking at the context:
	// after n batches it reports ready and keeps going, so with n =
	// maxBufferedBatches on a non-head part its next Emit parks.
	flooding := func(n int) partFunc {
		return func(_ context.Context, part int, sink engine.Sink) error {
			for i := 0; ; i++ {
				if i == n {
					ready <- struct{}{}
				}
				if err := sink.Emit(part, testBatch(int32(part), float32(i)), true); err != nil {
					return err
				}
			}
		}
	}
	completed := func(n int) partFunc {
		return func(_ context.Context, part int, sink engine.Sink) error {
			for i := 0; i < n; i++ {
				if err := sink.Emit(part, testBatch(int32(part), float32(i)), true); err != nil {
					return err
				}
			}
			ready <- struct{}{}
			return nil
		}
	}

	cases := []struct {
		name  string
		parts []partFunc
		// topK puts a bounded Sort (under its Limit) over the join: the
		// consumer is then the Sort's absorb loop, which never stops early.
		topK bool
	}{
		{"every part stalled before its first batch", []partFunc{stalled(0), stalled(0)}, false},
		{"head stalled empty, tail parked in Emit", []partFunc{stalled(0), flooding(maxBufferedBatches)}, false},
		{"head stalled mid-part, consumer back in next, tail parked", []partFunc{stalled(1), flooding(maxBufferedBatches)}, false},
		{"head stalled, tail still below the buffer bound", []partFunc{stalled(0), flooding(1)}, false},
		{"first part done, new head stalled, tail parked", []partFunc{completed(2), stalled(1), flooding(maxBufferedBatches)}, false},
		{"two tails parked behind a stalled head", []partFunc{stalled(2), flooding(maxBufferedBatches), flooding(maxBufferedBatches)}, false},
		{"bounded Sort absorbing, heap full, head stalled, tail parked", []partFunc{stalled(4), flooding(maxBufferedBatches)}, true},
		{"bounded Sort absorbing, heap still filling", []partFunc{stalled(1), stalled(0)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			ready = make(chan struct{}, len(tc.parts))
			var root Node = &JoinNode{
				Eng: &stubEngine{parts: tc.parts}, Cluster: &cluster.Cluster{},
				Parts: len(tc.parts), In: &engine.Inputs{OutSchema: testSchema},
			}
			if tc.topK {
				root = NewLimit(&SortNode{Child: root, Keys: []query.OrderKey{{Attr: "v"}}}, 2)
			}
			p := &Plan{Root: root, OutID: tuple.ID{Table: -1, Chunk: -1}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := Run(ctx, p)
				done <- err
			}()
			for range tc.parts {
				<-ready
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<16)
				t.Fatalf("Run still blocked 10s after cancel:\n%s", buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
