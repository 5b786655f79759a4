package cache

import (
	"context"
	"errors"
	"sync"
)

// Flight deduplicates concurrent loads of the same key: while one caller
// (the leader) executes the load function, every other caller of the same
// key blocks and receives the leader's result. It is the fetch-deduplication
// layer the concurrent query service stacks on top of the Caching Service,
// so N queries missing the cache on one sub-table trigger exactly one BDS
// fetch instead of N.
//
// Unlike the classic singleflight, a leader failure with a context error
// (the leader's query was cancelled or timed out) does not poison the
// waiters: each waiter whose own context is still live retries and may
// become the next leader. Only genuine load errors are shared.
type Flight[K comparable, V any] struct {
	// Retryable, when set, extends the leader-handoff rule beyond context
	// errors: a leader failure it classifies as transient (e.g. an
	// injected fetch fault) is not shared with waiters — each live waiter
	// retries the load itself and may become the next leader. Set it
	// before the Flight is in use; it is read concurrently afterwards.
	Retryable func(error) bool

	mu    sync.Mutex
	calls map[K]*flightCall[V]

	leads  int64 // loads actually executed
	shared int64 // callers served by another caller's load
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight returns an empty deduplicator.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{calls: make(map[K]*flightCall[V])}
}

// Do returns the result of load for key, collapsing concurrent calls with
// the same key into a single load execution. The boolean reports whether
// the result came from another caller's load (a dedup hit). Waiters whose
// own ctx expires return ctx.Err() without waiting further; waiters that
// observe the leader fail with a context error retry the load themselves.
func (f *Flight[K, V]) Do(ctx context.Context, key K, load func() (V, error)) (V, bool, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		f.mu.Lock()
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if c.err != nil && (isContextErr(c.err) || (f.Retryable != nil && f.Retryable(c.err))) {
				// The leader's query died for its own reasons (context) or
				// hit a transient fault; this caller is still live, so try
				// again (and possibly lead).
				continue
			}
			f.mu.Lock()
			f.shared++
			f.mu.Unlock()
			return c.val, true, c.err
		}
		c := &flightCall[V]{done: make(chan struct{})}
		f.calls[key] = c
		f.leads++
		f.mu.Unlock()

		c.val, c.err = load()
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// FlightStats is a snapshot of deduplication effectiveness.
type FlightStats struct {
	// Leads counts loads actually executed; Shared counts callers that
	// were served by someone else's load. The dedup hit rate is
	// Shared / (Leads + Shared).
	Leads  int64
	Shared int64
}

// Stats returns a snapshot of the counters, counted since the Flight was
// made.
func (f *Flight[K, V]) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightStats{Leads: f.leads, Shared: f.shared}
}
