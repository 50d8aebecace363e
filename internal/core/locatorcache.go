package core

import (
	"container/list"
	"slices"
	"sync"

	"bitdew/internal/data"
	"bitdew/internal/dht"
)

// defaultLocatorCacheSize bounds the client-side locator cache. Each entry
// is a handful of locators (tens of bytes), so the default keeps the cache
// under ~1 MB while covering far more data than a node touches in a
// typical master/worker wave.
const defaultLocatorCacheSize = 4096

// locatorKey identifies one cached lookup: the candidate list depends on
// the protocol filter the caller asked with, so the protocol is part of the
// key rather than the value.
type locatorKey struct {
	uid      data.UID
	protocol string
}

// locatorCache is a bounded LRU of locator candidate lists keyed by
// (datum, protocol). It exists so the second and later fetches of a datum —
// a master collecting results in rounds, a worker re-verifying a broadcast
// base — skip the catalog/repository round trip entirely. Entries are
// invalidated when a cached locator turns out dead (the fetch path falls
// back to the wire) and when the datum is deleted.
type locatorCache struct {
	mu      sync.Mutex
	max     int
	entries map[locatorKey]*list.Element
	order   *list.List // front = most recently used
	hits    uint64
	misses  uint64
	// epoch is the membership epoch the entries were resolved under; a
	// bump flushes everything (see setEpoch).
	epoch uint64
	// protocols lists every protocol an entry was ever stored under (a
	// handful), so invalidate probes a datum's keys instead of the LRU.
	protocols []string
}

type locatorCacheEntry struct {
	key  locatorKey
	locs []data.Locator
}

func newLocatorCache(max int) *locatorCache {
	if max < 1 {
		max = 1
	}
	return &locatorCache{
		max:     max,
		entries: make(map[locatorKey]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached candidates for (uid, protocol), if any, marking
// the entry most-recently-used. Empty candidate lists are never cached, so
// ok implies at least one locator.
func (c *locatorCache) get(uid data.UID, protocol string) ([]data.Locator, bool) {
	key := locatorKey{uid: uid, protocol: protocol}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	locs := el.Value.(*locatorCacheEntry).locs
	out := make([]data.Locator, len(locs))
	copy(out, locs)
	return out, true
}

// put stores the candidates for (uid, protocol), evicting the least
// recently used entry when full. Empty lists are ignored: "no locator yet"
// is a transient state that must keep hitting the wire.
func (c *locatorCache) put(uid data.UID, protocol string, locs []data.Locator) {
	if len(locs) == 0 {
		return
	}
	stored := make([]data.Locator, len(locs))
	copy(stored, locs)
	key := locatorKey{uid: uid, protocol: protocol}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*locatorCacheEntry).locs = stored
		c.order.MoveToFront(el)
		return
	}
	if !slices.Contains(c.protocols, protocol) {
		c.protocols = append(c.protocols, protocol)
	}
	c.entries[key] = c.order.PushFront(&locatorCacheEntry{key: key, locs: stored})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*locatorCacheEntry).key)
	}
}

// invalidate drops every entry of uid (all protocol variants).
func (c *locatorCache) invalidate(uid data.UID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.protocols {
		key := locatorKey{uid: uid, protocol: p}
		if el, ok := c.entries[key]; ok {
			c.order.Remove(el)
			delete(c.entries, key)
		}
	}
}

// invalidateRange drops every entry whose datum homes on rangeID under
// place; the view swap calls it for a range whose owner moved
// (ShardSet.install).
func (c *locatorCache) invalidateRange(place *dht.Placement, rangeID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		entry := el.Value.(*locatorCacheEntry)
		if place.ShardOf(string(entry.key.uid)) == rangeID {
			c.order.Remove(el)
			delete(c.entries, entry.key)
		}
		el = next
	}
}

// setEpoch records the membership epoch the cache's entries resolve under.
// A bump past a previously learned epoch flushes every entry: a rebalance
// moved key ranges, so cached endpoints may point at a shard that no
// longer owns (or soon stops serving) the datum. The first learned epoch
// (0 → e) flushes nothing — the entries were resolved under that same
// membership, the client just had not seen its number yet.
func (c *locatorCache) setEpoch(e uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != 0 && e != c.epoch {
		c.entries = make(map[locatorKey]*list.Element)
		c.order.Init()
	}
	c.epoch = e
}

// stats returns the cumulative hit and miss counts.
func (c *locatorCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
