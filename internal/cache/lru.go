// Package cache implements the framework's Caching Service: a byte-bounded
// LRU cache of recently accessed objects, used by compute-node QES
// instances to avoid re-fetching sub-tables from storage nodes.
//
// The paper assumes LRU replacement ("we choose the cache replacement
// policy to be LRU, since this is a reasonable policy in many cases and
// commonly used"); under the IJ scheduler's memory assumption no sub-table
// is evicted while still needed, and the hit/miss statistics let tests and
// the harness verify that. The counters only count up: a run's share is
// the difference of two Stats snapshots, and a metrics registry samples
// the same counters at scrape time.
//
// Besides the values it is asked to keep (Put), the cache can hold values
// that merely use its free room (Admit): IJ keeps decoded left rows and
// its edges' match pairs this way beside the sub-tables they were derived
// from. Such an entry never
// displaces a Put entry — every Put that needs room drops admitted entries
// first — so the Put entries, their hits, misses and evictions are exactly
// those of a cache that never admitted anything.
package cache

import "sync"

// LRU is a byte-capacity-bounded least-recently-used cache mapping keys of
// type K to values of type V. All methods are safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[K]*node[K, V]
	kept     list[K, V] // Put entries
	admitted list[K, V] // Admit entries, dropped first when a Put needs room

	hits      int64
	misses    int64
	evictions int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	admitted   bool
	prev, next *node[K, V]
}

// list is a recency list: head most recently used, tail least.
type list[K comparable, V any] struct {
	head, tail *node[K, V]
}

// NewLRU returns a cache that holds at most capacity bytes of values
// (as reported by the size argument to Put). A zero or negative capacity
// yields a cache that stores nothing — every Get misses.
func NewLRU[K comparable, V any](capacity int64) *LRU[K, V] {
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*node[K, V]),
	}
}

// Get returns the cached value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.listOf(n).moveToFront(n)
	return n.val, true
}

// Touch returns the cached value for key and marks it most recently used,
// as Get does, but leaves the hit/miss counters alone: they count the
// demand for Put entries only.
func (c *LRU[K, V]) Touch(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.listOf(n).moveToFront(n)
	return n.val, true
}

// Peek returns the cached value for key without updating recency or the
// hit/miss counters.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Put inserts or replaces the value for key, recording its size in bytes.
// To make room it first drops admitted entries, least recently used first,
// then evicts least-recently-used Put entries until the capacity
// constraint holds. Values larger than the whole capacity are not cached
// at all.
func (c *LRU[K, V]) Put(key K, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.remove(old)
	}
	if size > c.capacity {
		return
	}
	for c.used+size > c.capacity && c.admitted.tail != nil {
		c.remove(c.admitted.tail)
	}
	for c.used+size > c.capacity && c.kept.tail != nil {
		c.remove(c.kept.tail)
		c.evictions++
	}
	c.insert(&node[K, V]{key: key, val: val, size: size})
}

// Admits reports whether Admit would store a value of size bytes under
// key now: key is absent and size fits the free room. A caller whose value
// is costly to make asks first; the answer can change before it calls
// Admit, which checks again.
func (c *LRU[K, V]) Admits(key K, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admits(key, size)
}

func (c *LRU[K, V]) admits(key K, size int64) bool {
	_, ok := c.entries[key]
	return !ok && c.used+size <= c.capacity
}

// Admit stores val under key only if key is absent and size bytes fit the
// free room: it evicts nothing. An admitted entry is found by Get, Touch
// and Peek like any other, but any Put that needs its room drops it, and
// that drop is not an eviction. Admit reports whether val was admitted.
func (c *LRU[K, V]) Admit(key K, val V, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.admits(key, size) {
		return false
	}
	c.insert(&node[K, V]{key: key, val: val, size: size, admitted: true})
	return true
}

// Clear empties the cache; the dropped entries do not count as evictions.
func (c *LRU[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*node[K, V])
	c.kept, c.admitted = list[K, V]{}, list[K, V]{}
	c.used = 0
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total size of cached values.
func (c *LRU[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats returns a snapshot of the hit/miss/eviction counters, counted
// since the cache was made.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

func (c *LRU[K, V]) listOf(n *node[K, V]) *list[K, V] {
	if n.admitted {
		return &c.admitted
	}
	return &c.kept
}

func (c *LRU[K, V]) insert(n *node[K, V]) {
	c.entries[n.key] = n
	c.used += n.size
	c.listOf(n).pushFront(n)
}

func (c *LRU[K, V]) remove(n *node[K, V]) {
	c.used -= n.size
	c.listOf(n).unlink(n)
	delete(c.entries, n.key)
}

func (l *list[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *list[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *list[K, V]) moveToFront(n *node[K, V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
