package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// has reports residency without touching recency or the counters.
func has[K comparable, V any](c *LRU[K, V], k K) bool {
	_, ok := c.Peek(k)
	return ok
}

// policies is the table the Caching Service's contract tests run over: one
// row today; a schedule-aware policy (ROADMAP item 4) must pass them too.
func policies(capacity int64) map[string]*LRU[string, int] {
	return map[string]*LRU[string, int]{"lru": NewLRU[string, int](capacity)}
}

func TestPolicyConformance(t *testing.T) {
	for name, c := range policies(100) {
		t.Run(name, func(t *testing.T) {
			c.Put("a", 1, 10)
			c.Put("b", 2, 20)
			if v, ok := c.Get("a"); !ok || v != 1 {
				t.Errorf("Get(a) = %v,%v", v, ok)
			}
			if _, ok := c.Get("zzz"); ok {
				t.Error("phantom hit")
			}
			if !has(c, "b") || c.Len() != 2 || c.Bytes() != 30 {
				t.Errorf("state: len=%d bytes=%d", c.Len(), c.Bytes())
			}
			s := c.Stats()
			if s.Hits != 1 || s.Misses != 1 {
				t.Errorf("stats = %+v (Peek must not count)", s)
			}
			// Replacement updates size.
			c.Put("a", 3, 50)
			if c.Bytes() != 70 || c.Len() != 2 {
				t.Errorf("after replace: bytes=%d len=%d", c.Bytes(), c.Len())
			}
			// Oversize object is not cached and evicts nothing.
			c.Put("big", 9, 1000)
			if has(c, "big") || !has(c, "b") {
				t.Error("oversize handling wrong")
			}
			c.Clear()
			if c.Len() != 0 || c.Bytes() != 0 {
				t.Error("clear failed")
			}
			if c.Stats() != s {
				t.Errorf("stats after replace, oversize put and clear = %+v, want %+v", c.Stats(), s)
			}
		})
	}
}

func TestPolicyCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := int64(1 + r.Intn(300))
		for name, c := range policies(capacity) {
			for step := 0; step < 400; step++ {
				k := fmt.Sprint(r.Intn(40))
				if r.Intn(3) == 0 {
					c.Put(k, step, int64(1+r.Intn(80)))
				} else {
					c.Get(k)
				}
				if c.Bytes() > capacity {
					t.Logf("%s exceeded capacity: %d > %d", name, c.Bytes(), capacity)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPutGet(t *testing.T) {
	c := NewLRU[string, int](100)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v,%v", v, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Error("unexpected hit")
	}
	if c.Len() != 2 || c.Bytes() != 20 {
		t.Errorf("Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU[string, int](30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	// Touch a so b becomes LRU.
	c.Get("a")
	c.Put("d", 4, 10)
	if has(c, "b") {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !has(c, k) {
			t.Errorf("%s should be cached", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	c := NewLRU[string, int](10)
	c.Put("big", 1, 100)
	if has(c, "big") || c.Bytes() != 0 {
		t.Error("oversize value must not be cached")
	}
	// And it must not have evicted existing entries.
	c.Put("a", 1, 5)
	c.Put("big", 2, 100)
	if !has(c, "a") {
		t.Error("oversize Put must not evict existing entries")
	}
}

func TestReplaceUpdatesSize(t *testing.T) {
	c := NewLRU[string, int](100)
	c.Put("a", 1, 10)
	c.Put("a", 2, 50)
	if c.Bytes() != 50 || c.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d", c.Bytes(), c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
}

func TestClear(t *testing.T) {
	c := NewLRU[string, int](100)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 || has(c, "a") {
		t.Error("Clear failed")
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Error("Clear must not count as eviction")
	}
	c.Put("c", 3, 10) // the emptied list must accept entries again
	if !has(c, "c") || c.Bytes() != 10 {
		t.Error("cache unusable after Clear")
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := NewLRU[string, int](0)
	c.Put("a", 1, 1)
	if c.Len() != 0 {
		t.Error("zero-capacity cache must store nothing")
	}
}

// TestStatsOnlyCountUp: emptying the cache drops entries, not counts, so
// a caller's share of the counters is the difference of two snapshots.
func TestStatsOnlyCountUp(t *testing.T) {
	c := NewLRU[string, int](10)
	c.Get("x")
	c.Put("x", 1, 6)
	c.Get("x")
	c.Clear()
	c.Get("x")
	c.Put("x", 1, 6)
	c.Put("y", 2, 6)
	if s := c.Stats(); s != (Stats{Hits: 1, Misses: 2, Evictions: 1}) {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 eviction", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	const capacity = 1 << 12
	c := NewLRU[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := r.Intn(256)
				if r.Intn(2) == 0 {
					c.Put(k, k, 16)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > capacity {
		t.Errorf("capacity violated: %d > %d", c.Bytes(), capacity)
	}
}

// TestPropCapacityNeverExceeded drives a random operation sequence and
// checks the byte bound and bookkeeping invariants after every step.
func TestPropCapacityNeverExceeded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := int64(1 + r.Intn(200))
		c := NewLRU[int, string](capacity)
		live := make(map[int]int64) // sizes of the keys the cache still holds
		for step := 0; step < 300; step++ {
			k := r.Intn(30)
			if r.Intn(2) == 0 {
				size := int64(1 + r.Intn(60))
				c.Put(k, fmt.Sprint(k), size)
				live[k] = size
				for k := range live {
					if !has(c, k) { // evicted, or refused as oversize
						delete(live, k)
					}
				}
			} else {
				c.Get(k)
			}
			if c.Bytes() > capacity {
				t.Logf("capacity exceeded: %d > %d", c.Bytes(), capacity)
				return false
			}
			var sum int64
			for _, s := range live {
				sum += s
			}
			if sum != c.Bytes() || len(live) != c.Len() {
				t.Logf("bookkeeping drift: model %d bytes/%d entries, cache %d/%d",
					sum, len(live), c.Bytes(), c.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropLRUOrderMatchesModel(t *testing.T) {
	// Uniform entry size 1 so the cache behaves like a classic count-bounded
	// LRU, compared against a simple slice model.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		c := NewLRU[int, int](int64(n))
		var order []int // order[0] = LRU ... last = MRU
		touch := func(k int) {
			for i, v := range order {
				if v == k {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, k)
			if len(order) > n {
				order = order[1:]
			}
		}
		for step := 0; step < 500; step++ {
			k := r.Intn(20)
			if r.Intn(2) == 0 {
				c.Put(k, k, 1)
				touch(k)
			} else {
				_, hit := c.Get(k)
				inModel := false
				for _, v := range order {
					if v == k {
						inModel = true
						break
					}
				}
				if hit != inModel {
					t.Logf("step %d: hit=%v model=%v for key %d", step, hit, inModel, k)
					return false
				}
				if hit {
					touch(k)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAdmitEvictsNothing(t *testing.T) {
	c := NewLRU[string, int](100)
	c.Put("a", 1, 60)
	if !c.Admits("t", 30) || !c.Admit("t", 7, 30) {
		t.Fatal("free room refused")
	}
	if v, ok := c.Peek("t"); !ok || v != 7 || c.Bytes() != 90 || c.Len() != 2 {
		t.Fatalf("admitted entry: %v,%v, bytes=%d len=%d", v, ok, c.Bytes(), c.Len())
	}
	if c.Admits("u", 20) || c.Admit("u", 8, 20) {
		t.Error("admitted past the capacity")
	}
	for _, k := range []string{"t", "a"} {
		if c.Admits(k, 1) || c.Admit(k, 9, 1) {
			t.Errorf("admitted present key %s", k)
		}
	}
	if v, _ := c.Peek("a"); v != 1 || c.Stats() != (Stats{}) {
		t.Errorf("Admit touched the Put entries or the counters: a=%d %+v", v, c.Stats())
	}
}

// TestPutDropsAdmittedFirst: a Put that needs room drops admitted entries,
// least recently used first, before it evicts a Put entry; the drops are
// not evictions.
func TestPutDropsAdmittedFirst(t *testing.T) {
	c := NewLRU[string, int](100)
	c.Put("a", 1, 30)
	c.Admit("t1", 0, 30)
	c.Admit("t2", 0, 30)
	c.Touch("t1") // t2 is now the older admitted entry
	c.Put("b", 2, 30)
	if has(c, "t2") || !has(c, "t1") || !has(c, "a") || !has(c, "b") {
		t.Errorf("first Put should drop only t2: a=%v b=%v t1=%v t2=%v", has(c, "a"), has(c, "b"), has(c, "t1"), has(c, "t2"))
	}
	c.Put("d", 3, 60)
	if has(c, "t1") || has(c, "a") || !has(c, "b") || !has(c, "d") {
		t.Errorf("second Put should drop t1 and evict a: a=%v b=%v t1=%v", has(c, "a"), has(c, "b"), has(c, "t1"))
	}
	if s := c.Stats(); s.Evictions != 1 || c.Bytes() != 90 {
		t.Errorf("evictions = %d, bytes = %d; want 1 (a, not the tables) and 90", s.Evictions, c.Bytes())
	}
}

// TestTouchLeavesStats: Touch makes an entry most recently used, as Get
// does, without counting a hit or a miss.
func TestTouchLeavesStats(t *testing.T) {
	c := NewLRU[string, int](30)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	if v, ok := c.Touch("a"); !ok || v != 1 {
		t.Fatalf("Touch(a) = %v,%v", v, ok)
	}
	if _, ok := c.Touch("zzz"); ok {
		t.Error("phantom Touch")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("Touch counted: %+v", s)
	}
	c.Put("d", 4, 10)
	if !has(c, "a") || has(c, "b") {
		t.Error("Touch did not make a most recently used: b should have been evicted")
	}
}

// TestPropAdmittedInvisibleToPutEntries is the contract IJ's kept rows
// and pairs rest on: interleaving admissions (and Touches of admitted keys) into a
// Put/Get sequence changes no Get result and no counter against a twin
// that never admits, and never breaks the byte bound.
func TestPropAdmittedInvisibleToPutEntries(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := int64(1 + r.Intn(300))
		c, twin := NewLRU[int, int](capacity), NewLRU[int, int](capacity)
		for step := 0; step < 400; step++ {
			k := r.Intn(30)
			switch r.Intn(4) {
			case 0:
				size := int64(1 + r.Intn(80))
				c.Put(k, step, size)
				twin.Put(k, step, size)
			case 1:
				c.Admit(100+k, step, int64(1+r.Intn(80)))
			case 2:
				c.Touch(100 + k)
			default:
				v, ok := c.Get(k)
				tv, tok := twin.Get(k)
				if v != tv || ok != tok {
					t.Logf("step %d: Get(%d) = %v,%v; twin %v,%v", step, k, v, ok, tv, tok)
					return false
				}
			}
			if c.Stats() != twin.Stats() || c.Bytes() > capacity {
				t.Logf("step %d: stats %+v, twin %+v; bytes %d of %d", step, c.Stats(), twin.Stats(), c.Bytes(), capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLRU(b *testing.B) {
	c := NewLRU[int, int](4096)
	r := rand.New(rand.NewSource(1))
	keys := make([]int, 1<<12)
	for i := range keys {
		keys[i] = r.Intn(512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if _, ok := c.Get(k); !ok {
			c.Put(k, k, 16)
		}
	}
}
