package pipeline

import (
	"container/list"
	"fmt"
	"hash/crc32"
	"sync"

	"accelscore/internal/forest"
	"accelscore/internal/kernel"
)

// ModelCache is a concurrency-safe LRU of compiled models: the deserialized
// forest, its flat kernel form and its structural stats, keyed by model name
// plus the RFX blob's CRC32 checksum. Because the checksum is recomputed on
// every lookup, replacing a model in the models table (same name, new blob)
// invalidates its entry automatically — no write-path hook needed; the stale
// entry simply stops matching and ages out of the LRU.
//
// This is the "cache compiled execution state across queries" optimization
// of SQL+ML systems: on a hit, a scoring query skips blob deserialization,
// kernel compilation and stats computation entirely, leaving model
// pre-processing at checksum cost (the Fig. 11 "tightly integrated" story).
type ModelCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	index    map[string]*list.Element
	// inflight tracks compilations in progress so concurrent cold-start
	// queries for the same key share one compile (singleflight) instead of
	// stampeding: the first caller compiles, the rest block on done.
	inflight map[string]*compileCall

	hits, misses, evictions, coalesced uint64
}

// compileCall is one in-progress compilation that late arrivals wait on.
type compileCall struct {
	done chan struct{}
	e    *cacheEntry
	err  error
}

// cacheEntry is one cached compiled model.
type cacheEntry struct {
	key      string
	forest   *forest.Forest
	compiled *kernel.Compiled
	stats    forest.Stats
}

// DefaultModelCacheCapacity is used when NewModelCache gets capacity <= 0.
const DefaultModelCacheCapacity = 8

// NewModelCache returns an empty cache holding at most capacity models.
func NewModelCache(capacity int) *ModelCache {
	if capacity <= 0 {
		capacity = DefaultModelCacheCapacity
	}
	return &ModelCache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
		inflight: make(map[string]*compileCall),
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// Coalesced counts lookups that piggybacked on another query's
	// in-progress compilation instead of compiling themselves.
	Coalesced uint64
	Entries   int
}

// String renders the counters for dashboards and logs.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d coalesced=%d entries=%d",
		s.Hits, s.Misses, s.Evictions, s.Coalesced, s.Entries)
}

// Stats returns the current counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Coalesced: c.coalesced, Entries: c.ll.Len()}
}

// Len returns the number of cached models.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheKey derives the lookup key: model name + blob checksum + length. The
// checksum makes a replaced blob miss even under an unchanged name.
func cacheKey(name string, blob []byte) string {
	return fmt.Sprintf("%s|%08x|%d", name, crc32.ChecksumIEEE(blob), len(blob))
}

// storeLocked inserts (or refreshes) an entry and evicts beyond capacity,
// returning how many entries were evicted so callers can publish the events.
// c.mu must be held.
func (c *ModelCache) storeLocked(e *cacheEntry) int {
	if el, ok := c.index[e.key]; ok {
		// A racing query compiled the same model; keep the existing entry.
		c.ll.MoveToFront(el)
		return 0
	}
	c.index[e.key] = c.ll.PushFront(e)
	evicted := 0
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*cacheEntry).key)
		c.evictions++
		evicted++
	}
	return evicted
}

// GetOrCompile returns the cached entry for key, or compiles it exactly once
// even under concurrent cold-start pressure. status is "hit" (already
// cached), "miss" (this caller ran compile) or "coalesced" (another caller's
// in-progress compile was shared). A failed compile is propagated to every
// waiter and cached nothing, so the next query retries.
func (c *ModelCache) GetOrCompile(key string, compile func() (*cacheEntry, error)) (e *cacheEntry, status string, evicted int, err error) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry), "hit", 0, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-call.done
		return call.e, "coalesced", 0, call.err
	}
	c.misses++
	call := &compileCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.e, call.err = compile()

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		evicted = c.storeLocked(call.e)
	}
	c.mu.Unlock()
	close(call.done)
	return call.e, "miss", evicted, call.err
}
