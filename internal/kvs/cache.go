package kvs

import (
	"sync"
	"sync/atomic"

	"drtm/internal/memory"
)

// LocationCache is the RDMA-friendly, location-based, host-transparent
// cache of Section 5.3. It caches header *buckets* (locations of entries),
// never values, so it needs no invalidation protocol: a stale location is
// detected by incarnation checking on the data read and simply refetched.
// One cache maps to one remote table and is shared by all client threads on
// a machine.
//
// The cache is a direct-mapped array of bucket snapshots (the paper's
// "simple directly mapping"); each frame stores the 128-byte bucket plus a
// tag identifying whether it snapshots a main bucket (by index) or an
// indirect bucket (by arena offset).
//
// An ordered region has no buckets to snapshot: its cache (NewOrderedCache)
// holds (key, entry offset) pairs, direct-mapped by key, under the same rule —
// a location, never a value, judged by the image the READ at it returns.
type LocationCache struct {
	mu     sync.Mutex
	frames []cacheFrame // hash regions
	locs   []locFrame   // ordered regions

	hits   atomic.Int64
	misses atomic.Int64
	invals atomic.Int64
}

type cacheFrame struct {
	tag   uint64
	valid bool
	words [BucketWords]uint64
}

// locFrame is one ordered row's location; entries start past the segment
// stamps, so off 0 marks an empty frame.
type locFrame struct {
	key uint64
	off memory.Offset
}

// LocBytes is the footprint of one cached ordered location.
const LocBytes = 16

// BucketBytes is the footprint of one cached bucket frame's payload.
const BucketBytes = BucketWords * 8

// Cache tags distinguish main buckets (identified by index) from indirect
// buckets (identified by arena offset) in one namespace.
func mainTag(idx uint64) uint64  { return idx << 1 }
func indirTag(off uint64) uint64 { return off<<1 | 1 }

// NewLocationCache builds a cache with the given budget in bytes
// (minimum one frame).
func NewLocationCache(budgetBytes int) *LocationCache {
	n := budgetBytes / BucketBytes
	if n < 1 {
		n = 1
	}
	return &LocationCache{frames: make([]cacheFrame, n)}
}

// NewOrderedCache builds the cache of an ordered region of the given entry
// capacity: one frame per entry the region can hold, or as many as the budget
// buys when that is fewer (minimum one).
func NewOrderedCache(budgetBytes, capacity int) *LocationCache {
	n := min(budgetBytes/LocBytes, capacity)
	if n < 1 {
		n = 1
	}
	return &LocationCache{locs: make([]locFrame, n)}
}

// Ordered reports a cache of an ordered region's locations.
func (c *LocationCache) Ordered() bool { return c != nil && c.locs != nil }

// Frames returns the capacity in buckets, or in ordered locations.
func (c *LocationCache) Frames() int { return len(c.frames) + len(c.locs) }

// Stats returns hit/miss/invalidation counts.
func (c *LocationCache) Stats() (hits, misses, invals int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invals.Load()
}

func (c *LocationCache) frameOf(tag uint64) int {
	return int(mix64(tag) % uint64(len(c.frames)))
}

// get copies the cached bucket for tag into dst and reports whether it was
// cached. A nil receiver (caching disabled) behaves as an always-miss cache.
func (c *LocationCache) get(tag uint64, dst *[BucketWords]uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	f := &c.frames[c.frameOf(tag)]
	if !f.valid || f.tag != tag {
		c.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	*dst = f.words
	c.mu.Unlock()
	c.hits.Add(1)
	return true
}

// put installs a bucket snapshot, evicting whatever shared its frame.
func (c *LocationCache) put(tag uint64, words []uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	f := &c.frames[c.frameOf(tag)]
	f.tag = tag
	f.valid = true
	copy(f.words[:], words)
	c.mu.Unlock()
}

// invalidate drops the frame holding tag, if present.
func (c *LocationCache) invalidate(tag uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	f := &c.frames[c.frameOf(tag)]
	if f.valid && f.tag == tag {
		f.valid = false
		c.invals.Add(1)
	}
	c.mu.Unlock()
}

func (c *LocationCache) locOf(key uint64) *locFrame {
	return &c.locs[mix64(key)%uint64(len(c.locs))]
}

// Loc returns the cached entry offset of an ordered region's key, counting the
// hit or miss. A nil receiver always misses.
func (c *LocationCache) Loc(key uint64) (memory.Offset, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	f := *c.locOf(key)
	c.mu.Unlock()
	if f.off == 0 || f.key != key {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return f.off, true
}

// SetLoc records where key's entry is, evicting whatever shared its frame.
func (c *LocationCache) SetLoc(key uint64, off memory.Offset) {
	if c == nil {
		return
	}
	c.mu.Lock()
	*c.locOf(key) = locFrame{key, off}
	c.mu.Unlock()
}

// DropLoc drops key's frame, if present: the location was observed stale.
func (c *LocationCache) DropLoc(key uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if f := c.locOf(key); f.off != 0 && f.key == key {
		f.off = 0
		c.invals.Add(1)
	}
	c.mu.Unlock()
}

// invalidateChain drops every cached bucket on key's chain in t.
func (c *LocationCache) invalidateChain(t *Table, key uint64) {
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
