// Package cache implements the framework's Caching Service: a byte-bounded
// LRU cache of recently accessed objects, used by compute-node QES
// instances to avoid re-fetching sub-tables from storage nodes.
//
// The paper assumes LRU replacement ("we choose the cache replacement
// policy to be LRU, since this is a reasonable policy in many cases and
// commonly used"); under the IJ scheduler's memory assumption no sub-table
// is evicted while still needed, and the hit/miss statistics let tests and
// the harness verify that.
package cache

import (
	"sync"

	"sciview/internal/metrics"
)

// Metrics carries the live observability counters a cache feeds in
// addition to its own Stats snapshot. All fields may be nil (no-op): an
// uninstrumented cache pays one predicted branch per event.
type Metrics struct {
	Hits      *metrics.Counter
	Misses    *metrics.Counter
	Evictions *metrics.Counter
}

// LRU is a byte-capacity-bounded least-recently-used cache mapping keys of
// type K to values of type V. All methods are safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[K]*node[K, V]
	head     *node[K, V] // most recently used
	tail     *node[K, V] // least recently used

	hits      int64
	misses    int64
	evictions int64
	met       Metrics
}

type node[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *node[K, V]
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

// SetMetrics wires live observability counters alongside the Stats
// snapshot. Call before the cache is in use.
func (c *LRU[K, V]) SetMetrics(m Metrics) { c.met = m }

// Get returns the cached value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		c.met.Misses.Inc()
		var zero V
		return zero, false
	}
	c.hits++
	c.met.Hits.Inc()
	c.moveToFront(n)
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

// Put inserts or replaces the value for key, recording its size in bytes,
// and evicts least-recently-used entries until the capacity constraint
// holds. Values larger than the whole capacity are not cached at all.
func (c *LRU[K, V]) Put(key K, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.used -= old.size
		c.unlink(old)
		delete(c.entries, key)
	}
	if size > c.capacity {
		return
	}
	for c.used+size > c.capacity && c.tail != nil {
		c.evictLocked(c.tail)
	}
	n := &node[K, V]{key: key, val: val, size: size}
	c.entries[key] = n
	c.used += size
	c.pushFront(n)
}

// Clear empties the cache; the dropped entries do not count as evictions.
func (c *LRU[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*node[K, V])
	c.head, c.tail = nil, nil
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

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// ResetStats zeroes the counters (between experiment runs).
func (c *LRU[K, V]) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions = 0, 0, 0
}

func (c *LRU[K, V]) evictLocked(n *node[K, V]) {
	c.used -= n.size
	c.unlink(n)
	delete(c.entries, n.key)
	c.evictions++
	c.met.Evictions.Inc()
}

func (c *LRU[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
