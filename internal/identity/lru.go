package identity

import "container/list"

// lru is a bounded least-recently-used map with hit/miss counters: the one
// eviction mechanism behind both the signature cache (VerifyCache) and the
// MSP's identity table. It is not safe for concurrent use; each owner guards
// it with its own mutex.
type lru[K comparable, V any] struct {
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used; values are lruEntry[K, V]
	hits    uint64
	misses  uint64
}

// lruEntry puts val first: a zero-size V (the signature cache stores
// struct{}) in last position would be padded, pushing a 32-byte key into the
// next allocation size class for every one of 16k entries.
type lruEntry[K comparable, V any] struct {
	val V
	key K
}

// newLRU builds a cache bounded to capacity entries. sizeHint pre-sizes the
// index: capacity for a cache that is expected to fill (no rehashing on the
// way there), 0 for one that usually stays far below its bound.
func newLRU[K comparable, V any](capacity, sizeHint int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		entries: make(map[K]*list.Element, sizeHint),
		order:   list.New(),
	}
}

// get returns the value stored under k, refreshing its recency, and counts
// the lookup as a hit or a miss.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(lruEntry[K, V]).val, true
}

// put stores v under k, evicting the least recently used entry when the
// bound is exceeded. A key already present keeps its value (concurrent
// resolvers of one key computed the same thing) and only has its recency
// refreshed.
func (c *lru[K, V]) put(k K, v V) {
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(lruEntry[K, V]{val: v, key: k})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(lruEntry[K, V]).key)
	}
}

// clear drops every entry; the counters keep running.
func (c *lru[K, V]) clear() {
	clear(c.entries)
	c.order.Init()
}

func (c *lru[K, V]) stats() VerifyCacheStats {
	return VerifyCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
}
