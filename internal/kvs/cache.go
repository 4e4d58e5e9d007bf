package kvs

import (
	"sync"
	"sync/atomic"
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
type LocationCache struct {
	mu     sync.Mutex
	frames []cacheFrame

	hits   atomic.Int64
	misses atomic.Int64
	invals atomic.Int64
}

type cacheFrame struct {
	tag   uint64
	valid bool
	words [BucketWords]uint64
}

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

// Frames returns the capacity in buckets.
func (c *LocationCache) Frames() int { return len(c.frames) }

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
// cached. A nil receiver (a typed nil passed through the Cache interface)
// behaves as an always-miss cache.
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
