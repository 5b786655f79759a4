package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentStress hammers the cache with parallel Get/Put/Peek
// traffic that forces constant eviction. Run with -race; the test asserts
// only invariants that hold under any interleaving.
func TestConcurrentStress(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const (
			capacity = 64 // tiny: evictions guaranteed
			workers  = 8
			ops      = 2000
			keys     = 32
		)
		c := NewLRU[int, string](capacity)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					k := (w*ops + i*7) % keys
					switch i % 4 {
					case 0, 1:
						if v, ok := c.Get(k); ok && v != fmt.Sprintf("v%d", k) {
							t.Errorf("key %d holds %q", k, v)
						}
					case 2:
						c.Put(k, fmt.Sprintf("v%d", k), int64(8+k%5))
					case 3:
						if v, ok := c.Peek(k); ok && v != fmt.Sprintf("v%d", k) {
							t.Errorf("key %d holds %q", k, v)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if got := c.Bytes(); got > capacity {
			t.Errorf("cache holds %d bytes, capacity %d", got, capacity)
		}
		s := c.Stats()
		if s.Hits < 0 || s.Misses < 0 || s.Evictions < 0 {
			t.Errorf("negative counters: %+v", s)
		}
	})
}

// TestFlightSingleLoad proves the singleflight property: 100 concurrent
// requesters of one key trigger exactly one load, and all observers agree
// on the value.
func TestFlightSingleLoad(t *testing.T) {
	f := NewFlight[string, int]()
	var loads atomic.Int64
	release := make(chan struct{})
	const requesters = 100
	var wg sync.WaitGroup
	vals := make([]int, requesters)
	shared := make([]bool, requesters)
	for i := 0; i < requesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, sh, err := f.Do(context.Background(), "st-3-7", func() (int, error) {
				loads.Add(1)
				<-release // hold every other requester in the flight
				return 42, nil
			})
			if err != nil {
				t.Errorf("requester %d: %v", i, err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Let requesters pile up behind the leader, then release the load.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("%d loads for %d concurrent requesters, want exactly 1", got, requesters)
	}
	nshared := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("requester %d got %d", i, vals[i])
		}
		if shared[i] {
			nshared++
		}
	}
	if nshared != requesters-1 {
		t.Errorf("%d shared results, want %d", nshared, requesters-1)
	}
	s := f.Stats()
	if s.Leads != 1 || s.Shared != int64(requesters-1) {
		t.Errorf("stats = %+v", s)
	}
}

// TestFlightDistinctKeys checks keys do not serialize against each other.
func TestFlightDistinctKeys(t *testing.T) {
	f := NewFlight[int, int]()
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, _, err := f.Do(context.Background(), k, func() (int, error) { return k * 2, nil })
			if err != nil || v != k*2 {
				t.Errorf("key %d: v=%d err=%v", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if s := f.Stats(); s.Leads != 16 {
		t.Errorf("leads = %d, want 16", s.Leads)
	}
}

// TestFlightLeaderCancelled: a cancelled leader must not doom live waiters —
// one of them retries the load and everyone live still gets a value.
func TestFlightLeaderCancelled(t *testing.T) {
	f := NewFlight[string, int]()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inLoad := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	leaderErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, _, err := f.Do(leaderCtx, "k", func() (int, error) {
			close(inLoad)
			<-leaderCtx.Done()
			return 0, leaderCtx.Err()
		})
		leaderErr <- err
	}()

	<-inLoad // waiter joins while the leader is mid-load
	wg.Add(1)
	waiterVal := make(chan int, 1)
	go func() {
		defer wg.Done()
		v, _, err := f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterVal <- v
	}()

	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	wg.Wait()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want Canceled", err)
	}
	if v := <-waiterVal; v != 7 {
		t.Errorf("waiter retried value = %d, want 7", v)
	}
}

// TestFlightWaiterContext: a waiter whose own ctx expires stops waiting.
func TestFlightWaiterContext(t *testing.T) {
	f := NewFlight[string, int]()
	inLoad := make(chan struct{})
	release := make(chan struct{})
	go f.Do(context.Background(), "k", func() (int, error) {
		close(inLoad)
		<-release
		return 1, nil
	})
	<-inLoad
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := f.Do(ctx, "k", func() (int, error) { return 2, nil })
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}
