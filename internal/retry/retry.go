// Package retry implements deadline-aware exponential backoff with
// deterministic jitter. It retries only faults the caller classifies as
// transient (by default transport.IsRetryable), and it gives up early when
// the context's remaining budget cannot cover the next backoff sleep — so
// a caller holding a deadline can fail over to a replica instead of
// burning its whole budget on one dead node.
package retry

import (
	"context"
	"time"

	"sciview/internal/transport"
)

// Policy configures Do. The zero value is usable: it behaves like
// Default().
type Policy struct {
	// Attempts is the maximum number of tries (first call included).
	// Values < 1 mean 3.
	Attempts int
	// Base is the delay before the second attempt; it grows by Multiplier
	// per attempt, capped at Max. Zero means 1ms.
	Base time.Duration
	// Max caps the per-attempt delay. Zero means 50ms.
	Max time.Duration
	// Multiplier is the exponential growth factor. Values < 1 mean 2.
	Multiplier float64
	// Jitter in [0,1] randomizes each delay within ±Jitter/2 of itself,
	// deterministically from Seed and the attempt number. Zero means 0.5.
	Jitter float64
	// Seed feeds the deterministic jitter stream. Two calls with the same
	// Seed back off identically.
	Seed uint64
	// Retryable classifies errors; nil means transport.IsRetryable.
	Retryable func(error) bool
}

// Default returns the policy used by the cluster fetch path.
func Default() Policy {
	return Policy{Attempts: 3, Base: time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
}

func (p Policy) norm() Policy {
	if p.Attempts < 1 {
		p.Attempts = 3
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 50 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.5
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the backoff before attempt n (n ≥ 1; attempt 0 is
// immediate). Deterministic in (policy, n).
func (p Policy) Delay(n int) time.Duration {
	p = p.norm()
	d := float64(p.Base)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	// Jitter maps d to [d*(1-J/2), d*(1+J/2)] using a splitmix64 stream
	// keyed by (Seed, n): deterministic, but decorrelated across attempts
	// and callers.
	u := splitmix(p.Seed ^ (uint64(n) * 0x9e3779b97f4a7c15))
	frac := float64(u>>11) / float64(1<<53) // [0,1)
	d *= 1 - p.Jitter/2 + p.Jitter*frac
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Do runs op up to p.Attempts times, backing off between tries. op
// receives the attempt number (0-based). Do returns nil on the first
// success, the last error once attempts are exhausted or it is not
// retryable, or early if ctx expires / its remaining budget cannot cover
// the next sleep (so the caller can fail over within its deadline).
func Do(ctx context.Context, p Policy, op func(attempt int) error) error {
	p = p.norm()
	retryable := p.Retryable
	if retryable == nil {
		retryable = transport.IsRetryable
	}
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			d := p.Delay(attempt)
			if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
				return err // sleeping would eat the budget; let caller fail over
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return err
		}
		if err = op(attempt); err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
	}
	return err
}
