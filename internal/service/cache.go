package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// lru is a bounded, thread-safe least-recently-used cache from canonical
// content-addressed keys to values: finished responses on the result
// path, built engines behind engineCache. Cached values are
// pure functions of the canonical key (every random stream is seeded
// from request fields), so entries never go stale — the bound exists
// only to cap memory.
type lru[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recent.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lru[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// Evictions returns how many entries have been displaced to honor the
// capacity bound over the cache's lifetime.
func (c *lru[V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of cached entries.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cachePair is one (key, value) snapshot returned by Entries.
type cachePair[V any] struct {
	Key string
	Val V
}

// Entries returns a snapshot of the cache's contents, most recently
// used first, without disturbing recency. Drain migration walks it to
// push entries to their ring owners.
func (c *lru[V]) Entries() []cachePair[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cachePair[V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[V])
		out = append(out, cachePair[V]{Key: e.key, Val: e.val})
	}
	return out
}

// engineIdentity is the one identity of a cached engine: the graph
// exactly as the request described it (topology spec or inline graph,
// the latter by its full content) plus the engine's recipe — the tree
// recipe for skew kernels, the element size for hybrid
// systems — read after applyDefaults. The same value names the ring
// route and every engine cache entry, each under its own namespace. Hashing the
// request's description instead of the built graph makes key derivation
// O(request size), not O(cells). Two different descriptions of one
// graph merely key apart and cost a duplicate engine, never a wrong
// answer.
type engineIdentity struct {
	Input    GraphInput `json:"input"`
	Tree     string     `json:"tree,omitempty"`
	Equalize bool       `json:"equalize,omitempty"`
	Spacing  float64    `json:"spacing,omitempty"`
	Size     float64    `json:"size,omitempty"` // hybrid element size
}

// key derives the identity's content address under namespace: an
// engine cache's name, or "route" for the ring.
func (id engineIdentity) key(namespace string) (string, error) {
	canonical, err := canonicalize(id)
	if err != nil {
		return "", err
	}
	return cacheKey(namespace, canonical), nil
}

// routeKey is the identity's ring routing key. Requests sharing an
// engine — any model, seed, or trial count — land on the node that
// holds it.
func (id engineIdentity) routeKey() (string, bool) {
	k, err := id.key("route")
	return k, err == nil
}

// engineCache is one bounded cache of built engines (skew kernels,
// hybrid systems), keyed by engineIdentity
// under the cache's name and counted into a shared hit/miss pair.
type engineCache[V any] struct {
	*lru[V]
	name         string
	flight       *flightGroup[V]
	hits, misses *atomic.Int64
}

func newEngineCache[V any](name string, entries int, hits, misses *atomic.Int64) *engineCache[V] {
	return &engineCache[V]{lru: newLRU[V](entries), name: name, flight: newFlightGroup[V](), hits: hits, misses: misses}
}

// get returns the engine for id, calling build on a miss. Concurrent
// misses of one key share a single build, so each distinct recipe is
// built once however requests race; a follower counts as a hit. A
// follower waits for the leader without a deadline, as long as building
// the engine itself would have taken, so it sees the engine or the
// build's own error — a function of id alone — and never an error of
// its wait. Errors are not cached: an invalid builder name or an
// inapplicable topology rebuilds (and re-reports) on the next lookup,
// keeping error semantics identical to the uncached path.
func (c *engineCache[V]) get(id engineIdentity, build func() (V, error)) (V, error) {
	key, err := id.key(c.name)
	if err != nil {
		var zero V
		return zero, err
	}
	if v, ok := c.Get(key); ok {
		c.hits.Add(1)
		return v, nil
	}
	built := false
	v, err, _, _ := c.flight.Do(context.Background(), key, "", func() (V, error) {
		// A build of key may have finished since the Get above.
		if v, ok := c.Get(key); ok {
			return v, nil
		}
		built = true
		v, err := build()
		if err == nil {
			c.Put(key, v)
		}
		return v, err
	})
	if built {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return v, err
}
