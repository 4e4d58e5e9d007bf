package kvs

import (
	"testing"

	"drtm/internal/htm"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

func TestAssocCacheBasics(t *testing.T) {
	c := NewAssocCache(8*BucketBytes, 4)
	if c.Frames() != 8 {
		t.Fatalf("frames = %d", c.Frames())
	}
	w := make([]uint64, BucketWords)
	w[0] = 42
	c.put(mainTag(1), w)
	var got [BucketWords]uint64
	ok := c.get(mainTag(1), &got)
	if !ok || got[0] != 42 {
		t.Fatalf("get = %v,%v", got, ok)
	}
	if ok := c.get(mainTag(2), new([BucketWords]uint64)); ok {
		t.Fatal("phantom hit")
	}
	c.invalidate(mainTag(1))
	if ok := c.get(mainTag(1), new([BucketWords]uint64)); ok {
		t.Fatal("invalidate failed")
	}
	hits, misses, invals := c.Stats()
	if hits != 1 || misses != 2 || invals != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, invals)
	}
}

func TestAssocCachePutUpdatesExisting(t *testing.T) {
	c := NewAssocCache(8*BucketBytes, 4)
	w := make([]uint64, BucketWords)
	w[0] = 1
	c.put(mainTag(5), w)
	w[0] = 2
	c.put(mainTag(5), w)
	var got [BucketWords]uint64
	c.get(mainTag(5), &got)
	if got[0] != 2 {
		t.Fatalf("update lost: %d", got[0])
	}
}

// TestAssocLRUEviction: filling a set beyond its ways evicts the least
// recently used frame, not the most recent.
func TestAssocLRUEviction(t *testing.T) {
	// One set of 4 ways: every tag collides.
	c := NewAssocCache(4*BucketBytes, 4)
	w := make([]uint64, BucketWords)
	for i := uint64(0); i < 4; i++ {
		w[0] = i
		c.put(mainTag(i), w)
	}
	// Touch 0 so it becomes MRU; insert a 5th tag; LRU (tag 1) must go.
	if ok := c.get(mainTag(0), new([BucketWords]uint64)); !ok {
		t.Fatal("tag 0 missing")
	}
	w[0] = 99
	c.put(mainTag(4), w)
	if ok := c.get(mainTag(0), new([BucketWords]uint64)); !ok {
		t.Fatal("MRU tag 0 was evicted")
	}
	if ok := c.get(mainTag(1), new([BucketWords]uint64)); ok {
		t.Fatal("LRU tag 1 survived")
	}
	if ok := c.get(mainTag(4), new([BucketWords]uint64)); !ok {
		t.Fatal("new tag missing")
	}
}

// TestAssocVsDirectConflictMisses: under a conflict-heavy access pattern at
// equal budget, the associative cache retains far more entries.
func TestAssocVsDirectConflictMisses(t *testing.T) {
	hitRate := func(c Cache) float64 {
		w := make([]uint64, BucketWords)
		// Working set of 32 tags with a 64-frame budget: capacity is ample,
		// so steady-state misses are conflict misses, which associativity
		// absorbs (a hot set may still exceed its ways occasionally).
		for pass := 0; pass < 10; pass++ {
			for i := uint64(0); i < 32; i++ {
				if ok := c.get(mainTag(i), new([BucketWords]uint64)); !ok {
					c.put(mainTag(i), w)
				}
			}
		}
		h, m, _ := c.Stats()
		return float64(h) / float64(h+m)
	}
	direct := hitRate(NewLocationCache(64 * BucketBytes))
	assoc := hitRate(NewAssocCache(64*BucketBytes, 8))
	if assoc <= direct {
		t.Fatalf("associative (%.2f) should beat direct-mapped (%.2f) on conflict misses",
			assoc, direct)
	}
}

// TestAssocCacheWithRemoteGets: end-to-end through the remote access path.
func TestAssocCacheWithRemoteGets(t *testing.T) {
	tb := New(Config{MainBuckets: 64, IndirectBuckets: 64, Capacity: 128, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	f := rdma.NewFabric(2, vtime.DefaultModel(), rdma.AtomicHCA)
	f.Register(0, 0, tb.Arena())
	for k := uint64(1); k <= 50; k++ {
		if err := tb.Insert(k, []uint64{k, k}); err != nil {
			t.Fatal(err)
		}
	}
	qp := f.NewQP(1, nil)
	cache := NewAssocCache(1<<16, 4)
	for pass := 0; pass < 2; pass++ {
		for k := uint64(1); k <= 50; k++ {
			e, ok := tb.GetRemote(qp, cache, k)
			if !ok || e.Value[0] != k {
				t.Fatalf("get %d = %+v,%v", k, e, ok)
			}
		}
	}
	hits, _, _ := cache.Stats()
	if hits < 50 {
		t.Fatalf("hits = %d, want >= 50 on the warm pass", hits)
	}
	// Incarnation checking still recovers through the associative cache.
	tb.Delete(7)
	if _, ok := tb.GetRemote(qp, cache, 7); ok {
		t.Fatal("stale hit for deleted key")
	}
}
