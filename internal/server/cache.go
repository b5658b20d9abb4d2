package server

import (
	"container/list"
	"strings"
	"sync"
)

// resultCache is a small LRU over finished mining results, keyed by
// (database name, database generation, canonicalized mining options). A
// database re-upload bumps the generation, so stale entries are never
// served; they simply age out of the LRU. Only complete (non-truncated)
// results are cached, which makes entries worker-count invariant: the
// sequential and parallel miners produce identical complete results.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits, misses uint64
}

type cacheEntry struct {
	key string
	res *mineOutcome
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil // caching disabled
	}
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

func (c *resultCache) get(key string) (*mineOutcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) put(key string, res *mineOutcome) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// purgePrefix drops every entry whose key starts with prefix. Used when a
// database is deleted, to free its entries' memory at once: correctness
// does not depend on it, since keys carry the server-wide upload
// generation, which a re-upload never reuses.
func (c *resultCache) purgePrefix(prefix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.order.Remove(el)
			delete(c.entries, key)
		}
	}
}

// counters returns (hits, misses, size) for /healthz introspection.
func (c *resultCache) counters() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
