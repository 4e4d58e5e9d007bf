package kvs

import (
	"sync"

	"drtm/internal/memory"
	"drtm/internal/obs"
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
//
// The cache keeps no tally: every probe and invalidation is counted in the
// observability shard of the worker that made it (EvCacheHit and its five
// siblings), passed in by the caller; a nil shard counts nothing.
type LocationCache struct {
	mu     sync.Mutex
	frames []cacheFrame // hash regions
	locs   []locFrame   // ordered regions
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

// NewOrderedCache builds the cache of an ordered region: as many frames as
// the budget buys, whatever the region holds (minimum one).
func NewOrderedCache(budgetBytes int) *LocationCache {
	n := budgetBytes / LocBytes
	if n < 1 {
		n = 1
	}
	return &LocationCache{locs: make([]locFrame, n)}
}

// Frames returns the capacity in buckets, or in ordered locations.
func (c *LocationCache) Frames() int { return len(c.frames) + len(c.locs) }

func (c *LocationCache) frameOf(tag uint64) int {
	return int(mix64(tag) % uint64(len(c.frames)))
}

// get copies the cached bucket for tag into dst and reports whether it was
// cached, counting the hit or miss on sh. A nil receiver (caching disabled)
// behaves as an always-miss cache that counts nothing.
func (c *LocationCache) get(sh *obs.Shard, tag uint64, dst *[BucketWords]uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	f := &c.frames[c.frameOf(tag)]
	if !f.valid || f.tag != tag {
		c.mu.Unlock()
		sh.Inc(obs.EvCacheMiss)
		return false
	}
	*dst = f.words
	c.mu.Unlock()
	sh.Inc(obs.EvCacheHit)
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

// invalidate drops the frame holding tag, if present, counting the drop on sh.
func (c *LocationCache) invalidate(sh *obs.Shard, tag uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	f := &c.frames[c.frameOf(tag)]
	if f.valid && f.tag == tag {
		f.valid = false
		sh.Inc(obs.EvCacheInval)
	}
	c.mu.Unlock()
}

func (c *LocationCache) locOf(key uint64) *locFrame {
	return &c.locs[mix64(key)%uint64(len(c.locs))]
}

// Loc returns the cached entry offset of an ordered region's key, counting the
// hit or miss on sh. A nil receiver always misses and counts nothing.
func (c *LocationCache) Loc(sh *obs.Shard, key uint64) (memory.Offset, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	f := *c.locOf(key)
	c.mu.Unlock()
	if f.off == 0 || f.key != key {
		sh.Inc(obs.EvOrderedCacheMiss)
		return 0, false
	}
	sh.Inc(obs.EvOrderedCacheHit)
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

// DropLoc drops key's frame, if present: the location was observed stale. A
// drop is counted on sh.
func (c *LocationCache) DropLoc(sh *obs.Shard, key uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if f := c.locOf(key); f.off != 0 && f.key == key {
		f.off = 0
		sh.Inc(obs.EvOrderedCacheInval)
	}
	c.mu.Unlock()
}

// invalidateChain drops every cached bucket on key's chain in t. Its probes
// count like a lookup's, on sh.
func (c *LocationCache) invalidateChain(sh *obs.Shard, t *Table, key uint64) {
	idx := t.bucketOf(key)
	tag := mainTag(idx)
	var words [BucketWords]uint64
	for depth := 0; depth < maxChain; depth++ {
		ok := c.get(sh, tag, &words)
		c.invalidate(sh, tag)
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
