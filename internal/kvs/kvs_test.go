package kvs

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

func newTable(t testing.TB, cap int) *Table {
	t.Helper()
	return New(Config{
		Node: 0, RegionID: 0,
		MainBuckets: 64, IndirectBuckets: 64,
		Capacity: cap, ValueWords: 2,
	}, htm.NewEngine(htm.Config{}))
}

func val(a, b uint64) []uint64 { return []uint64{a, b} }

func TestSlotPacking(t *testing.T) {
	w0 := PackSlot(TypeEntry, 0x2ABC, 0xDEADBEEF)
	if SlotType(w0) != TypeEntry {
		t.Fatal("type lost")
	}
	if SlotLossyInc(w0) != 0x2ABC {
		t.Fatalf("lossy = %x", SlotLossyInc(w0))
	}
	if SlotOffset(w0) != 0xDEADBEEF {
		t.Fatalf("offset = %x", SlotOffset(w0))
	}
}

func TestQuickSlotPackingLossless(t *testing.T) {
	f := func(typ uint8, lossy uint16, off uint64) bool {
		ty := uint64(typ % 4)
		lo := uint64(lossy) & slotLossyMask
		of := memory.Offset(off & slotOffsetMask)
		w := PackSlot(ty, lo, of)
		return SlotType(w) == ty && SlotLossyInc(w) == lo && SlotOffset(w) == of
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIncVerPacking(t *testing.T) {
	w := PackIncVer(7, 42)
	if Incarnation(w) != 7 || Version(w) != 42 {
		t.Fatalf("incver roundtrip: inc=%d ver=%d", Incarnation(w), Version(w))
	}
	if !Live(1) || Live(2) || Live(0) {
		t.Fatal("liveness parity wrong")
	}
}

func TestInsertGet(t *testing.T) {
	tb := newTable(t, 128)
	if err := tb.Insert(42, val(1, 2)); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Get(42)
	if !ok || v[0] != 1 || v[1] != 2 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := tb.Get(43); ok {
		t.Fatal("found missing key")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestInsertDuplicate(t *testing.T) {
	tb := newTable(t, 128)
	if err := tb.Insert(1, val(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1, val(0, 0)); err != ErrExists {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	if tb.Len() != 1 {
		t.Fatal("duplicate insert changed Len")
	}
}

func TestPutOverwritesAndBumpsVersion(t *testing.T) {
	tb := newTable(t, 128)
	_ = tb.Insert(5, val(1, 1))
	off, _ := tb.LookupLocal(5)
	v0 := Version(tb.Arena().LoadWord(off + EntryIncVerWord))
	if !tb.Put(5, val(9, 9)) {
		t.Fatal("Put failed")
	}
	v, _ := tb.Get(5)
	if v[0] != 9 {
		t.Fatal("Put lost value")
	}
	v1 := Version(tb.Arena().LoadWord(off + EntryIncVerWord))
	if v1 != v0+1 {
		t.Fatalf("version %d -> %d, want +1", v0, v1)
	}
}

func TestDeleteAndIncarnation(t *testing.T) {
	tb := newTable(t, 128)
	_ = tb.Insert(7, val(3, 3))
	off, _ := tb.LookupLocal(7)
	incBefore := Incarnation(tb.Arena().LoadWord(off + EntryIncVerWord))
	if !Live(incBefore) {
		t.Fatal("inserted entry not live")
	}
	if !tb.Delete(7) {
		t.Fatal("Delete failed")
	}
	if _, ok := tb.Get(7); ok {
		t.Fatal("deleted key still found")
	}
	incAfter := Incarnation(tb.Arena().LoadWord(off + EntryIncVerWord))
	if Live(incAfter) || incAfter != incBefore+1 {
		t.Fatalf("incarnation %d -> %d, want dead +1", incBefore, incAfter)
	}
	if tb.Delete(7) {
		t.Fatal("double delete succeeded")
	}
}

func TestReuseAfterDelete(t *testing.T) {
	tb := New(Config{MainBuckets: 4, IndirectBuckets: 4, Capacity: 2, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	_ = tb.Insert(1, val(1, 1))
	_ = tb.Insert(2, val(2, 2))
	if err := tb.Insert(3, val(3, 3)); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	tb.Delete(1)
	if err := tb.Insert(3, val(3, 3)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	v, ok := tb.Get(3)
	if !ok || v[0] != 3 {
		t.Fatal("reused entry corrupt")
	}
}

// TestBucketOverflowChains forces every key into one main bucket so the
// chain conversion path (last slot -> indirect header) is exercised.
func TestBucketOverflowChains(t *testing.T) {
	tb := New(Config{MainBuckets: 1, IndirectBuckets: 16, Capacity: 64, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	const n = 40
	for k := uint64(1); k <= n; k++ {
		if err := tb.Insert(k, val(k, k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := tb.Get(k)
		if !ok || v[0] != k {
			t.Fatalf("get %d = %v,%v", k, v, ok)
		}
	}
	// And delete half, re-check the rest.
	for k := uint64(1); k <= n; k += 2 {
		if !tb.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(2); k <= n; k += 2 {
		if _, ok := tb.Get(k); !ok {
			t.Fatalf("survivor %d lost", k)
		}
	}
}

// TestInsertOneProbe pins the slot Insert's one walk of a chain picks: the
// first free slot in chain order, else the chain's last slot turned into the
// header of a fresh indirect bucket whose slot 0 takes the displaced resident
// and slot 1 the new key; and ErrExists for a key met anywhere on the chain,
// an indirect bucket included, with nothing allocated left behind.
func TestInsertOneProbe(t *testing.T) {
	tb := New(Config{MainBuckets: 1, IndirectBuckets: 4, Capacity: 64, ValueWords: 1},
		htm.NewEngine(htm.Config{}))
	slot := func(bucket memory.Offset, s int) (typ uint64, off memory.Offset, key uint64) {
		so := bucket + memory.Offset(s*SlotWords)
		w0 := tb.arena.LoadWord(so)
		return SlotType(w0), SlotOffset(w0), tb.arena.LoadWord(so + 1)
	}
	holds := func(bucket memory.Offset, s int, key uint64) {
		t.Helper()
		if typ, _, k := slot(bucket, s); typ != TypeEntry || k != key {
			t.Fatalf("bucket %d slot %d: type %d key %d, want entry %d", bucket, s, typ, k, key)
		}
	}
	linksTo := func(bucket memory.Offset, next memory.Offset) {
		t.Helper()
		if typ, off, _ := slot(bucket, SlotsPerBucket-1); typ != TypeHeader || off != next {
			t.Fatalf("bucket %d last slot: type %d offset %d, want a header to %d", bucket, typ, off, next)
		}
	}
	insert := func(key uint64, want error) {
		t.Helper()
		if err := tb.Insert(key, []uint64{key}); err != want {
			t.Fatalf("insert %d: %v, want %v", key, err, want)
		}
	}
	main, nb1, nb2 := memory.Offset(0), tb.indirBase, tb.indirBase+BucketWords

	for k := uint64(1); k <= SlotsPerBucket; k++ {
		insert(k, nil)
		holds(main, int(k-1), k)
	}
	insert(9, nil) // the chain is full: the last slot becomes the header
	linksTo(main, nb1)
	holds(nb1, 0, 8)
	holds(nb1, 1, 9)

	for _, dup := range []uint64{1, 8, 9} { // main bucket, displaced, new
		insert(dup, ErrExists)
	}
	if tb.Len() != 9 || tb.buckets.used != 1 || len(tb.buckets.recycled) != 0 {
		t.Fatalf("after the duplicates: %d rows, %d buckets used, %d given back",
			tb.Len(), tb.buckets.used, len(tb.buckets.recycled))
	}

	if !tb.Delete(3) {
		t.Fatal("delete 3")
	}
	insert(10, nil) // the freed main slot comes first in chain order
	holds(main, 2, 10)

	for k := uint64(11); k <= 16; k++ {
		insert(k, nil)
		holds(nb1, int(k-9), k)
	}
	insert(17, nil) // the indirect bucket is full: its last slot links on
	linksTo(nb1, nb2)
	holds(nb2, 0, 16)
	holds(nb2, 1, 17)
	insert(16, ErrExists)
	for k := uint64(1); k <= 17; k++ {
		if v, ok := tb.Get(k); ok != (k != 3) || ok && v[0] != k {
			t.Fatalf("get %d = %v, %v", k, v, ok)
		}
	}
}

// TestQuickAgainstMapModel drives the table with random operations and
// compares against a plain map.
func TestQuickAgainstMapModel(t *testing.T) {
	tb := New(Config{MainBuckets: 8, IndirectBuckets: 64, Capacity: 256, ValueWords: 1},
		htm.NewEngine(htm.Config{}))
	model := map[uint64]uint64{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(r.Intn(64) + 1)
		switch r.Intn(4) {
		case 0:
			err := tb.Insert(k, []uint64{k * 10})
			_, exists := model[k]
			if exists && err != ErrExists {
				t.Fatalf("insert dup %d: err=%v", k, err)
			}
			if !exists {
				if err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
				model[k] = k * 10
			}
		case 1:
			ok := tb.Delete(k)
			_, exists := model[k]
			if ok != exists {
				t.Fatalf("delete %d = %v, model %v", k, ok, exists)
			}
			delete(model, k)
		case 2:
			nv := uint64(r.Int63())
			ok := tb.Put(k, []uint64{nv})
			_, exists := model[k]
			if ok != exists {
				t.Fatalf("put %d = %v, model %v", k, ok, exists)
			}
			if exists {
				model[k] = nv
			}
		default:
			v, ok := tb.Get(k)
			mv, exists := model[k]
			if ok != exists || (ok && v[0] != mv) {
				t.Fatalf("get %d = %v,%v; model %v,%v", k, v, ok, mv, exists)
			}
		}
	}
	if tb.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tb.Len(), len(model))
	}
}

func TestConcurrentInsertsDisjoint(t *testing.T) {
	tb := newTable(t, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for k := base; k < base+100; k++ {
				if err := tb.Insert(k+1, val(k, k)); err != nil {
					t.Errorf("insert %d: %v", k, err)
				}
			}
		}(uint64(g * 100))
	}
	wg.Wait()
	if tb.Len() != 400 {
		t.Fatalf("Len = %d, want 400", tb.Len())
	}
	for k := uint64(1); k <= 400; k++ {
		if _, ok := tb.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func newFabricFor(tb *Table) *rdma.Fabric {
	f := rdma.NewFabric(2, vtime.DefaultModel(), rdma.AtomicHCA)
	f.Register(tb.Node(), tb.RegionID(), tb.Arena())
	return f
}

// newCountedQP is a node-1 queue pair with a standalone shard attached: the
// one tally of its verbs and of the cache probes made through it.
func newCountedQP(f *rdma.Fabric) *rdma.QP {
	qp := f.NewQP(1, nil)
	qp.Obs = obs.NewShard()
	return qp
}

func TestRemoteLookupAndRead(t *testing.T) {
	tb := newTable(t, 128)
	_ = tb.Insert(11, val(7, 8))
	f := newFabricFor(tb)
	qp := f.NewQP(1, nil)

	loc, ok := tb.LookupRemote(qp, nil, 11)
	if !ok {
		t.Fatal("remote lookup missed")
	}
	e, ok, err := tb.ReadEntryRemoteE(qp, 11, loc)
	if err != nil || !ok || e.Value[0] != 7 || e.Value[1] != 8 {
		t.Fatalf("remote read = %+v, %v, %v", e, ok, err)
	}
	if _, ok := tb.LookupRemote(qp, nil, 999); ok {
		t.Fatal("remote lookup found missing key")
	}
}

func TestRemoteLookupWalksChain(t *testing.T) {
	tb := New(Config{MainBuckets: 1, IndirectBuckets: 16, Capacity: 64, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	for k := uint64(1); k <= 30; k++ {
		_ = tb.Insert(k, val(k, k))
	}
	f := newFabricFor(tb)
	qp := newCountedQP(f)
	for k := uint64(1); k <= 30; k++ {
		e, ok := tb.GetRemote(qp, nil, k)
		if !ok || e.Value[0] != k {
			t.Fatalf("remote get %d = %+v,%v", k, e, ok)
		}
	}
	if qp.Obs.Count(obs.EvRDMARead) <= 60 {
		t.Fatal("chain walk should need more than 2 READs/key on average here")
	}
}

func TestLocationCacheReducesReads(t *testing.T) {
	tb := newTable(t, 128)
	for k := uint64(1); k <= 50; k++ {
		_ = tb.Insert(k, val(k, k))
	}
	f := newFabricFor(tb)
	qp := newCountedQP(f)
	cache := NewLocationCache(4096 * BucketBytes)

	// Warm pass.
	for k := uint64(1); k <= 50; k++ {
		if _, ok := tb.GetRemote(qp, cache, k); !ok {
			t.Fatalf("warm get %d missed", k)
		}
	}
	warm := qp.Obs.Count(obs.EvRDMARead)
	// Hot pass: lookups should be nearly all cache hits, leaving the 50
	// entry reads plus at most a handful of direct-mapped collision misses.
	for k := uint64(1); k <= 50; k++ {
		if _, ok := tb.GetRemote(qp, cache, k); !ok {
			t.Fatalf("hot get %d missed", k)
		}
	}
	hot := qp.Obs.Count(obs.EvRDMARead) - warm
	if hot < 50 || hot > 58 {
		t.Fatalf("hot pass used %d READs, want ~50 (entry reads only)", hot)
	}
	if hits := qp.Obs.Count(obs.EvCacheHit); hits < 50 {
		t.Fatalf("cache hits = %d, want >= 50", hits)
	}
}

// TestIncarnationCheckingDetectsDeleteThenReuse reproduces the stale-cache
// scenario the location cache depends on: a cached location goes stale via
// DELETE (and entry reuse for a different key); the remote reader detects
// it by incarnation checking and recovers through a fresh lookup.
func TestIncarnationCheckingDetectsDeleteThenReuse(t *testing.T) {
	tb := newTable(t, 4)
	_ = tb.Insert(100, val(1, 1))
	f := newFabricFor(tb)
	qp := f.NewQP(1, nil)
	cache := NewLocationCache(64 * BucketBytes)

	if _, ok := tb.GetRemote(qp, cache, 100); !ok {
		t.Fatal("initial get missed")
	}
	tb.Delete(100)
	// Reuse the same entry memory for a different key.
	if err := tb.Insert(200, val(2, 2)); err != nil {
		t.Fatal(err)
	}
	if e, ok := tb.GetRemote(qp, cache, 100); ok {
		t.Fatalf("stale read returned %+v for deleted key", e)
	}
	e, ok := tb.GetRemote(qp, cache, 200)
	if !ok || e.Value[0] != 2 {
		t.Fatalf("get new key = %+v,%v", e, ok)
	}
}

// TestRemoteReadsCoherentWithHTMWrites: a committed local HTM update is
// immediately visible to one-sided readers; an uncommitted one never is.
func TestRemoteReadsCoherentWithHTMWrites(t *testing.T) {
	tb := newTable(t, 16)
	_ = tb.Insert(1, val(10, 10))
	f := newFabricFor(tb)
	qp := f.NewQP(1, nil)

	tb.Put(1, val(20, 20))
	e, ok := tb.GetRemote(qp, nil, 1)
	if !ok || e.Value[0] != 20 {
		t.Fatalf("remote reader missed committed write: %+v", e)
	}
}

func TestCacheDirectMappedEviction(t *testing.T) {
	c := NewLocationCache(2 * BucketBytes) // 2 frames
	if c.Frames() != 2 {
		t.Fatalf("frames = %d", c.Frames())
	}
	w := make([]uint64, BucketWords)
	for i := uint64(0); i < 64; i++ {
		c.put(mainTag(i), w)
	}
	present := 0
	for i := uint64(0); i < 64; i++ {
		if ok := c.get(nil, mainTag(i), new([BucketWords]uint64)); ok {
			present++
		}
	}
	if present > 2 {
		t.Fatalf("direct-mapped cache retains %d > capacity", present)
	}
}

// TestOrderedCacheFrames: an ordered region's cache has budget/LocBytes frames,
// maps keys to entry offsets, direct-mapped, counts what it is asked on the
// caller's shard as ordered-frame events, and a nil one (caching disabled)
// misses without counting.
func TestOrderedCacheFrames(t *testing.T) {
	sh := obs.NewShard()
	c := NewOrderedCache(8*LocBytes + LocBytes/2)
	if len(c.locs) != 8 || c.Frames() != 8 {
		t.Fatalf("%d ordered of %d frames; want 8, what the budget buys", len(c.locs), c.Frames())
	}
	if n := NewOrderedCache(LocBytes - 1).Frames(); n != 1 {
		t.Fatalf("%d frames from a budget below one; want 1", n)
	}
	if NewLocationCache(1<<20).locs != nil {
		t.Fatal("a bucket cache holds ordered frames")
	}
	if _, ok := c.Loc(sh, 7); ok {
		t.Fatal("hit in an empty cache")
	}
	c.SetLoc(7, 4096)
	if off, ok := c.Loc(sh, 7); !ok || off != 4096 {
		t.Fatalf("Loc(7) = %d, %v", off, ok)
	}
	c.DropLoc(sh, 8) // not framed: nothing to drop, nothing counted
	c.DropLoc(sh, 7)
	if _, ok := c.Loc(sh, 7); ok {
		t.Fatal("hit after DropLoc")
	}
	got := cacheCounts(sh)
	if want := [6]int64{0, 0, 0, 1, 2, 1}; got != want {
		t.Fatalf("hash hit/miss/inval, ordered hit/miss/inval = %v, want %v", got, want)
	}
	for k := uint64(1); k <= 64; k++ {
		c.SetLoc(k, 1024+memory.Offset(k))
	}
	present := 0
	for k := uint64(1); k <= 64; k++ {
		if off, ok := c.Loc(sh, k); ok {
			if off != 1024+memory.Offset(k) {
				t.Fatalf("key %d framed at another key's offset %d", k, off)
			}
			present++
		}
	}
	if present == 0 || present > 8 {
		t.Fatalf("%d of 64 keys framed in 8 frames", present)
	}
	var off *LocationCache
	sh = obs.NewShard()
	off.SetLoc(1, 1)
	off.DropLoc(sh, 1)
	if _, ok := off.Loc(sh, 1); ok {
		t.Fatal("a nil cache answered")
	}
	if got := cacheCounts(sh); got != [6]int64{} {
		t.Fatalf("a nil cache counted %v", got)
	}
}

// cacheCounts reads the six location-cache events off a shard: hash frames'
// hits, misses and invalidations, then ordered frames'.
func cacheCounts(sh *obs.Shard) (n [6]int64) {
	for i, ev := range []obs.Event{obs.EvCacheHit, obs.EvCacheMiss, obs.EvCacheInval,
		obs.EvOrderedCacheHit, obs.EvOrderedCacheMiss, obs.EvOrderedCacheInval} {
		n[i] = sh.Count(ev)
	}
	return n
}

// TestCacheCountsOnQPShard: a hash region's cache probes count once each, on
// the shard of the queue pair the walk runs on — a miss exactly where a bucket
// READ follows, a hit exactly where one is saved — for the sync walk, the
// lockstep batch walk and an explicit invalidation, whose drops count once.
func TestCacheCountsOnQPShard(t *testing.T) {
	tb := New(Config{MainBuckets: 1, IndirectBuckets: 16, Capacity: 64, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	for k := uint64(1); k <= 30; k++ {
		_ = tb.Insert(k, val(k, k))
	}
	qp := newCountedQP(newFabricFor(tb))
	cache := NewLocationCache(1 << 20)
	// step runs op and returns what it moved: hash hits, misses, invalidations
	// and bucket READs. Ordered frames are never asked.
	step := func(op func()) (d [4]int64) {
		before, reads := cacheCounts(qp.Obs), qp.Obs.Count(obs.EvRDMARead)
		op()
		after := cacheCounts(qp.Obs)
		if after[3] != before[3] || after[4] != before[4] || after[5] != before[5] {
			t.Fatalf("a hash walk counted ordered-frame events: %v -> %v", before, after)
		}
		return [4]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2],
			qp.Obs.Count(obs.EvRDMARead) - reads}
	}
	lookup := func(key uint64) func() {
		return func() {
			if _, ok := tb.LookupRemote(qp, cache, key); !ok {
				t.Fatalf("key %d not found", key)
			}
		}
	}

	// Key 30 sits several buckets down the table's one chain.
	cold := step(lookup(30))
	depth := cold[3]
	if depth < 3 || cold != [4]int64{0, depth, 0, depth} {
		t.Fatalf("cold lookup moved hit/miss/inval/READ %v, want a miss per READ down a chain of >= 3", cold)
	}
	if warm := step(lookup(30)); warm != [4]int64{depth, 0, 0, 0} {
		t.Fatalf("warm lookup moved %v, want %d hits and nothing else", warm, depth)
	}
	// The invalidation walks the cached chain: one probe and one drop per
	// bucket. Again, nothing is framed to drop: one missed probe, no drop.
	inval := func() { tb.Invalidate(qp, cache, 30) }
	if got := step(inval); got != [4]int64{depth, 0, depth, 0} {
		t.Fatalf("invalidation moved %v, want %d hits and %d drops", got, depth, depth)
	}
	if got := step(inval); got != [4]int64{0, 1, 0, 0} {
		t.Fatalf("second invalidation moved %v, want one miss", got)
	}

	// The batch walk of two keys on the chain, cold then warm.
	sq := qp.NewSendQueue(0)
	batch := func() {
		a, b := &LookupReq{Table: tb, Cache: cache, Key: 30}, &LookupReq{Table: tb, Cache: cache, Key: 1}
		LookupBatch(sq, []*LookupReq{a, b})
		if !a.Found || !b.Found {
			t.Fatal("batch lookup missed")
		}
	}
	cold = step(batch)
	if cold[0] != 0 || cold[2] != 0 || cold[1] != cold[3] || cold[1] <= depth {
		t.Fatalf("cold batch moved hit/miss/inval/READ %v, want a miss per READ for both walks", cold)
	}
	if warm := step(batch); warm != [4]int64{cold[1], 0, 0, 0} {
		t.Fatalf("warm batch moved %v, want %d hits and nothing else", warm, cold[1])
	}
}

func BenchmarkLocalGet(b *testing.B) {
	tb := newTable(b, 4096)
	for k := uint64(1); k <= 1000; k++ {
		_ = tb.Insert(k, val(k, k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(uint64(i%1000) + 1)
	}
}

func BenchmarkRemoteGetCached(b *testing.B) {
	tb := newTable(b, 4096)
	for k := uint64(1); k <= 1000; k++ {
		_ = tb.Insert(k, val(k, k))
	}
	f := newFabricFor(tb)
	qp := f.NewQP(1, nil)
	cache := NewLocationCache(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.GetRemote(qp, cache, uint64(i%1000)+1)
	}
}
