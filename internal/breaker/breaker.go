// Package breaker implements a per-node circuit breaker. After K
// consecutive failures the breaker opens and the fetch path and planner
// stop dialing the node; after a cooldown one caller may claim a
// half-open probe, and its outcome either closes the breaker or re-opens
// it for another cooldown. This keeps a dead node from soaking every
// query's retry budget while still noticing recovery.
package breaker

import (
	"sync"
	"time"
)

// State of a breaker.
type State int

const (
	// Closed: the node is believed healthy; all traffic allowed.
	Closed State = iota
	// Open: the node tripped; traffic is refused until cooldown passes.
	Open
	// HalfOpen: cooldown expired and one probe is in flight; other
	// callers are still refused until the probe reports.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a single node's circuit breaker. The zero value is not
// usable; call New.
type Breaker struct {
	mu        sync.Mutex
	state     State
	fails     int // consecutive failures while Closed
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	trips     int64
	now       func() time.Time // clock hook for tests
}

// New returns a Closed breaker tripping after threshold consecutive
// failures and probing after cooldown. threshold < 1 means 3; cooldown
// <= 0 means 100ms.
func New(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 100 * time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock replaces the breaker's time source (tests only).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// Allow reports whether a caller may use the node now. When the breaker
// is Open and the cooldown has elapsed, the first caller to Allow claims
// the single half-open probe (gets true); concurrent callers keep getting
// false until Success or Failure resolves the probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			return true // this caller is the probe
		}
		return false
	case HalfOpen:
		return false // probe already claimed
	}
	return false
}

// Ready is Allow without side effects: it reports whether a call would be
// admitted, but never claims the probe. The planner uses it to skip dead
// nodes without consuming the fetch path's probe slot.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default:
		return false
	}
}

// Success records a successful exchange: it closes the breaker (resolving
// a half-open probe) and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
}

// Failure records a failed exchange. While Closed it counts toward the
// trip threshold; a half-open probe failure re-opens immediately with a
// fresh cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	case Open:
		// Late failure from a call admitted before the trip; nothing to do.
	}
}

// trip requires b.mu held.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.fails = 0
	b.trips++
}

// State returns the current state (Open is reported even if the cooldown
// has expired; the transition to HalfOpen happens in Allow).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened since it was made.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
