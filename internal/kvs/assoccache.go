package kvs

import (
	"sync"
	"sync/atomic"
)

// Cache is the location-cache contract used by the remote access path.
// Two implementations exist: the paper's simple direct-mapped LocationCache
// and the set-associative, LRU-replaced AssocCache the paper names as
// future work ("How to improve the cache through heuristic structure
// (e.g., associativity) and replacement mechanisms (e.g., LRU) will be our
// future work", Section 5.4).
type Cache interface {
	// get copies the bucket cached under tag into dst, if there is one.
	get(tag uint64, dst *[BucketWords]uint64) bool
	put(tag uint64, words []uint64)
	invalidate(tag uint64)
	// Stats returns hit/miss/invalidation counts.
	Stats() (hits, misses, invals int64)
}

var (
	_ Cache = (*LocationCache)(nil)
	_ Cache = (*AssocCache)(nil)
)

// AssocCache is an N-way set-associative location cache with LRU
// replacement within each set. Under uniform workloads with small budgets,
// the direct-mapped cache thrashes on conflict misses (the sharp drop of
// Figure 10(d)); associativity recovers most of it — the `ablate-assoc`
// experiment quantifies the difference.
type AssocCache struct {
	mu   sync.Mutex
	sets [][]assocFrame
	ways int
	tick uint64

	hits   atomic.Int64
	misses atomic.Int64
	invals atomic.Int64
}

type assocFrame struct {
	tag     uint64
	valid   bool
	lastUse uint64
	words   [BucketWords]uint64
}

// NewAssocCache builds a cache of the given byte budget with `ways`-way
// sets (minimum one set).
func NewAssocCache(budgetBytes, ways int) *AssocCache {
	if ways < 1 {
		ways = 1
	}
	frames := budgetBytes / BucketBytes
	if frames < ways {
		frames = ways
	}
	nsets := frames / ways
	c := &AssocCache{ways: ways, sets: make([][]assocFrame, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]assocFrame, ways)
	}
	return c
}

// Frames returns the capacity in buckets.
func (c *AssocCache) Frames() int { return len(c.sets) * c.ways }

// Stats implements Cache.
func (c *AssocCache) Stats() (hits, misses, invals int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invals.Load()
}

func (c *AssocCache) setOf(tag uint64) []assocFrame {
	return c.sets[mix64(tag)%uint64(len(c.sets))]
}

func (c *AssocCache) get(tag uint64, dst *[BucketWords]uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	set := c.setOf(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.tick++
			set[i].lastUse = c.tick
			*dst = set[i].words
			c.mu.Unlock()
			c.hits.Add(1)
			return true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return false
}

func (c *AssocCache) put(tag uint64, words []uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setOf(tag)
	c.tick++
	// Hit or free way first; otherwise evict the LRU way.
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim].tag = tag
	set[victim].valid = true
	set[victim].lastUse = c.tick
	copy(set[victim].words[:], words)
}

func (c *AssocCache) invalidate(tag uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	set := c.setOf(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			c.invals.Add(1)
			break
		}
	}
	c.mu.Unlock()
}

// InvalidateChain drops every cached bucket on key's chain, mirroring
// LocationCache.invalidateChain for the shared remote-access path.
func cacheInvalidateChain(c Cache, t *Table, key uint64) {
	idx := t.bucketOf(key)
	tag := mainTag(idx)
	var words [BucketWords]uint64
	for depth := 0; depth < maxChain; depth++ {
		ok := c.get(tag, &words)
		c.invalidate(tag)
		if !ok {
			return
		}
		var next uint64
		for s := 0; s < SlotsPerBucket; s++ {
			if SlotType(words[s*SlotWords]) == TypeHeader {
				next = uint64(SlotOffset(words[s*SlotWords]))
			}
		}
		if next == 0 {
			return
		}
		tag = indirTag(next)
	}
}
