package dbt

import (
	"sync"
	"sync/atomic"

	"yesquel/internal/kv"
)

// nodeCache holds inner nodes fetched by this client. Entries may be
// arbitrarily stale — the back-down search validates against leaf
// fences — so the cache needs no coherence protocol, which is what
// makes it cheap: a hit costs zero communication.
//
// The cache is bounded: admitting a node past cacheMaxNodes evicts a
// random resident entry first (Go's map iteration order serves as the
// random pick). Random replacement is deliberate — evicting the
// "wrong" node costs one extra transactional read on a later descent,
// never a wrong answer, so the bound can be enforced without any
// recency bookkeeping on the hit path.
//
// Values stored here are committed versions and are treated as
// immutable by the whole client. Each is a compact copy of what was read
// (kv.Value.Clone), made once, on insert: a node as read lies in the
// reply frame it arrived in, beside whatever else the reply carried
// (leaves, say), and a cache entry must not keep all of that alive.
type nodeCache struct {
	mu      sync.RWMutex
	nodes   map[kv.OID]*kv.Value
	evicted atomic.Uint64
}

func newNodeCache() *nodeCache {
	return &nodeCache{nodes: make(map[kv.OID]*kv.Value)}
}

func (c *nodeCache) get(oid kv.OID) (*kv.Value, bool) {
	c.mu.RLock()
	v, ok := c.nodes[oid]
	c.mu.RUnlock()
	return v, ok
}

func (c *nodeCache) put(oid kv.OID, v *kv.Value) {
	v = v.Clone()
	c.mu.Lock()
	if _, resident := c.nodes[oid]; !resident {
		for len(c.nodes) >= cacheMaxNodes {
			for victim := range c.nodes {
				delete(c.nodes, victim)
				c.evicted.Add(1)
				break
			}
		}
	}
	c.nodes[oid] = v
	c.mu.Unlock()
}

func (c *nodeCache) invalidate(oids ...kv.OID) {
	c.mu.Lock()
	for _, oid := range oids {
		delete(c.nodes, oid)
	}
	c.mu.Unlock()
}

func (c *nodeCache) clear() {
	c.mu.Lock()
	c.nodes = make(map[kv.OID]*kv.Value)
	c.mu.Unlock()
}

func (c *nodeCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// putRouter caches router as a split under it left it (committed), with
// whatever other routing cells the cached version holds inside
// committed's fences. Writers sharing a handle split siblings under one
// parent at once: each commits its own routing cell in a transaction that
// saw the parent without the other's, so caching either as it saw it
// drops the other's cell, and the next write routed through the gap fails
// its fence compare. The union is routing only, as every entry is.
func (c *nodeCache) putRouter(router kv.OID, committed *kv.Value) {
	if cached, ok := c.get(router); ok && cached.Attrs == committed.Attrs {
		merged := committed.Clone()
		for _, cell := range cached.Cells {
			if _, has := merged.ListGet(cell.Key); !has && committed.InBounds(cell.Key) {
				merged.ListAdd(cell.Key, cell.Value)
			}
		}
		committed = merged
	}
	c.put(router, committed)
}
