package tx

import (
	"errors"
	"slices"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// Tests of the ordered regions' location-cache frames (DESIGN.md, "Location
// cache"): a speculative read-only read of a remote ordered row READs at the
// offset an earlier one was told, and the image there — never the frame —
// decides what the slot is now. TestShippedImageServesOnlySpeculation holds the
// other half: nobody else asks the cache.

// cacheRig is a two-node rig: a committed erase's removal runs at once unless
// the test withholds it. Rows live on node
// 1; e reads them from node 0.
type cacheRig struct {
	rt      *Runtime
	home, e *Executor
}

func newCacheRig(t *testing.T, budget int) cacheRig {
	t.Helper()
	rt, stop := newOrderedRig(t, 2, 1, nil)
	t.Cleanup(stop)
	rt.ReadPolicy = PolicyAdaptive
	rt.CacheBudgetBytes = budget
	return cacheRig{rt, rt.Executor(1, 0), rt.Executor(0, 0)}
}

// erase commits an erase of key from its home; unlink = false withholds the
// removal, leaving the dead entry in the tree as a snapshot floor would.
func (r cacheRig) erase(t *testing.T, key uint64, unlink bool) {
	t.Helper()
	if err := r.home.Exec(func(tx *Tx) error {
		if _, err := tx.Erase(tblOrders, key); err != nil {
			return err
		}
		if !unlink {
			tx.removals = tx.removals[:0]
		}
		return tx.Execute(func(lc *Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
}

// read runs one attempt of a one-record speculative read-only transaction and
// returns what the body saw.
func (r cacheRig) read(key uint64) (val []uint64, inc uint32, err error) {
	ro := &RO{readSet: readSet{e: r.e, index: map[refKey]*remoteRec{}}, policy: PolicyAdaptive}
	defer ro.release()
	v, err := ro.Read(tblOrders, key)
	if err != nil {
		return nil, 0, err
	}
	if !ro.confirm() {
		return nil, 0, ErrRetry
	}
	return slices.Clone(v), ro.recs[0].inc, nil
}

func (r cacheRig) offOf(key uint64) uint64 {
	off, _ := r.rt.C.Node(1).Ordered(tblOrders).Lookup(key)
	return uint64(off)
}

// TestOrderedCacheSlotHistories: the verdict of the image at a cached offset,
// one subtest per thing that can have happened to the slot since the frame was
// filled, and for each the equivalence — the transaction returns what it
// returns with CacheBudgetBytes = 0, where every read ships its lookup.
func TestOrderedCacheSlotHistories(t *testing.T) {
	key, other := orderedKey(1, 1), orderedKey(1, 2)
	type cacheMoves struct{ hits, misses, invals int64 }
	for _, tc := range []struct {
		name    string
		history func(t *testing.T, r cacheRig) // between the read that fills the frame and the one judged
		want    readerVerbs                    // of the judged read, with the cache
		moves   cacheMoves
		err     error
		val0    uint64
		framed  bool // the key has a (fresh) frame afterwards
	}{
		{"live", func(*testing.T, cacheRig) {},
			readerVerbs{0, 0, 1}, cacheMoves{1, 0, 0}, nil, 100, true},
		{"rewritten in place", func(t *testing.T, r cacheRig) { rewrite(t, r.home, key, 7) },
			readerVerbs{0, 0, 1}, cacheMoves{1, 0, 0}, nil, 7, true},
		{"erased, still in the tree", func(t *testing.T, r cacheRig) { r.erase(t, key, false) },
			readerVerbs{1, 0, 1}, cacheMoves{1, 0, 1}, ErrNotFound, 0, false},
		{"erased and unlinked: the freed slot keeps its remover's lock", func(t *testing.T, r cacheRig) {
			r.erase(t, key, true)
		}, readerVerbs{1, 0, 1}, cacheMoves{1, 0, 1}, ErrNotFound, 0, false},
		{"erased, unlinked, the slot recycled for another key", func(t *testing.T, r cacheRig) {
			off := r.offOf(key)
			r.erase(t, key, true)
			insertOrders(t, r.home, 1, []uint64{2})
			if r.offOf(other) != off {
				t.Fatal("the other key did not take the freed slot")
			}
		}, readerVerbs{1, 0, 1}, cacheMoves{1, 0, 1}, ErrNotFound, 0, false},
		{"erased, unlinked, the slot recycled, the row back in another slot", func(t *testing.T, r cacheRig) {
			off := r.offOf(key)
			r.erase(t, key, true)
			insertOrders(t, r.home, 1, []uint64{2, 1})
			if r.offOf(other) != off || r.offOf(key) == off {
				t.Fatal("the slots did not change hands")
			}
		}, readerVerbs{1, 0, 1}, cacheMoves{1, 0, 1}, nil, 100, true},
		{"erased and revived in place", func(t *testing.T, r cacheRig) {
			off := r.offOf(key)
			r.erase(t, key, false)
			insertOrders(t, r.home, 1, []uint64{1})
			rewrite(t, r.home, key, 9)
			if r.offOf(key) != off {
				t.Fatal("the row was not revived in its slot")
			}
		}, readerVerbs{0, 0, 1}, cacheMoves{1, 0, 0}, nil, 9, true},
		{"write-locked", func(t *testing.T, r cacheRig) {
			holder := r.home.newTx()
			if err := holder.stageRemote(tblOrders, key, 1, tblOrders, 1, true); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(holder.releaseLocks)
		}, readerVerbs{0, 0, 1}, cacheMoves{1, 0, 0}, ErrRetry, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]struct {
				val []uint64
				inc uint32
				err error
			}
			for i, budget := range []int{1 << 20, 0} {
				r := newCacheRig(t, budget)
				insertOrders(t, r.home, 1, []uint64{1})
				if v, _, err := r.read(key); err != nil || v[0] != 100 {
					t.Fatalf("budget %d: the first read: %v, %v", budget, v, err)
				}
				tc.history(t, r)
				v0 := verbsOf(r.e)
				h0, m0, i0 := r.rt.OrderedCacheStats()
				got[i].val, got[i].inc, got[i].err = r.read(key)
				if budget == 0 {
					if h, m, _ := r.rt.CacheStats(); h+m != 0 {
						t.Errorf("a cache was asked with no budget: %d hits, %d misses", h, m)
					}
					continue
				}
				if verbs := verbsOf(r.e).since(v0); verbs != tc.want {
					t.Errorf("verbs %+v, want %+v", verbs, tc.want)
				}
				h, m, inv := r.rt.OrderedCacheStats()
				if moves := (cacheMoves{h - h0, m - m0, inv - i0}); moves != tc.moves {
					t.Errorf("cache moved by %+v, want %+v", moves, tc.moves)
				}
				off, framed := r.e.cacheFor(1, tblOrders).Loc(nil, key)
				if framed != tc.framed || framed && uint64(off) != r.offOf(key) {
					t.Errorf("frame afterwards: offset %d, %v; want %v at the row's slot %d", off, framed, tc.framed, r.offOf(key))
				}
				if tc.err == ErrRetry && r.e.w.Obs.Count(obs.EvRemoteLockConflict) != 1 {
					t.Error("a write-locked image was not counted as a lock conflict")
				}
			}
			if !errors.Is(got[0].err, tc.err) || tc.err == nil && got[0].err != nil {
				t.Errorf("read returned %v, want %v", got[0].err, tc.err)
			}
			if tc.err == nil && got[0].val[0] != tc.val0 {
				t.Errorf("read %v, want %d first", got[0].val, tc.val0)
			}
			if !slices.Equal(got[0].val, got[1].val) || got[0].inc != got[1].inc || got[0].err != got[1].err {
				t.Errorf("with the cache (%v, incarnation %d, %v), without (%v, incarnation %d, %v)",
					got[0].val, got[0].inc, got[0].err, got[1].val, got[1].inc, got[1].err)
			}
		})
	}
}

// TestOrderedCacheSizedByBudget: an ordered region's cache has as many frames
// as CacheBudgetBytes buys, whatever the region holds — the rule bucket caches
// follow — and none exists before the region's first speculative read-only
// read.
func TestOrderedCacheSizedByBudget(t *testing.T) {
	for _, budget := range []int{1 << 20, 10 * kvs.LocBytes} {
		r := newCacheRig(t, budget)
		insertOrders(t, r.home, 1, []uint64{1})
		rewrite(t, r.e, orderedKey(1, 1), 5) // a remote write-staged row builds nothing
		if n := len(r.rt.caches[0].m); n != 0 {
			t.Fatalf("%d caches before any speculative read-only read", n)
		}
		if _, _, err := r.read(orderedKey(1, 1)); err != nil {
			t.Fatal(err)
		}
		// newOrderedRig's regions hold 4096 entries: more than ten, fewer than
		// the 65 536 frames of a megabyte.
		if n, want := r.e.cacheFor(1, tblOrders).Frames(), budget/kvs.LocBytes; n != want {
			t.Errorf("budget %d: %d frames, want %d", budget, n, want)
		}
	}
}

// TestOrderedCacheFault: a cached READ the fabric loses is retried by
// readEntry's policy like any fetch READ, and one to a dead host ends in
// ErrNodeDown — neither is read as a stale location: the frame stays.
func TestOrderedCacheFault(t *testing.T) {
	r := newCacheRig(t, 1<<20)
	insertOrders(t, r.home, 1, []uint64{1})
	key := orderedKey(1, 1)
	if _, _, err := r.read(key); err != nil {
		t.Fatal(err)
	}
	retries := r.e.w.Obs.Count(obs.EvLockRetry)
	scriptFault(r.rt, 1) // the cached READ is the transaction's only verb
	v0 := verbsOf(r.e)
	v, _, err := r.read(key)
	if err != nil || v[0] != 100 {
		t.Fatalf("read across a lost READ: %v, %v", v, err)
	}
	if got := verbsOf(r.e).since(v0); got.msgs != 0 {
		t.Errorf("the lost READ was answered with a message: %+v", got)
	}
	if r.rt.C.Obs.Total(obs.EvVerbFault) != 1 || r.e.w.Obs.Count(obs.EvLockRetry)-retries != 1 {
		t.Errorf("faults drawn %d, retries %d; want the scripted one, retried once",
			r.rt.C.Obs.Total(obs.EvVerbFault), r.e.w.Obs.Count(obs.EvLockRetry)-retries)
	}

	r.rt.C.Crash(1)
	if _, _, err := r.read(key); !errors.Is(err, ErrNodeDown) {
		t.Errorf("read of a dead host: %v, want ErrNodeDown", err)
	}
	if _, _, invals := r.rt.OrderedCacheStats(); invals != 0 {
		t.Errorf("%d frames dropped on verb failures", invals)
	}
	if _, framed := r.e.cacheFor(1, tblOrders).Loc(nil, key); !framed {
		t.Error("the frame did not survive the faults")
	}
}

// TestOrderedCacheAcrossFailover: frames are keyed by storage region, so one
// filled from the primary is never used against the promoted replica's region —
// the first read after the promotion misses, ships its lookup to the new owner
// and fills a frame of the replica region's own.
func TestOrderedCacheAcrossFailover(t *testing.T) {
	cfg := cluster.DefaultConfig(3, 1)
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	cfg.ReplicationFactor = 1
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()
	rt := NewRuntime(c, func(_ int, key uint64) int { return int(key>>8) % 3 })
	rt.ReadPolicy = PolicyAdaptive
	rt.DefineOrderedSeg(tblOrders, 64, 2, 8)
	const part = 1
	backup := c.Backups(nil, part)[0]
	reader := 3 - part - backup // the node that is neither
	home, e := rt.Executor(part, 0), rt.Executor(reader, 0)
	// Pad the primary's shard so that the row's slot there holds something else
	// on the replica: a frame used across regions would read the wrong entry.
	for sub := uint64(1); sub <= 3; sub++ {
		if err := c.Node(part).Ordered(tblOrders).Insert(orderedKey(part, 0x80|sub), []uint64{sub, sub}); err != nil {
			t.Fatal(err)
		}
	}
	insertOrders(t, home, part, []uint64{7})
	key := orderedKey(part, 7)
	read := func() uint64 {
		t.Helper()
		var got uint64
		if err := e.ExecRO(func(ro *RO) error {
			v, err := ro.Read(tblOrders, key)
			if err == nil {
				got = v[0]
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	read()
	h0, _, _ := rt.OrderedCacheStats()
	if read() != 700 {
		t.Fatal("warm read of the primary")
	}
	if h, _, _ := rt.OrderedCacheStats(); h != h0+1 {
		t.Fatal("the second read of the primary did not hit its frame")
	}
	primaryOff, _ := c.Node(part).Ordered(tblOrders).Lookup(key)

	c.Crash(part)
	if rep := rt.Failover(part); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	nothingParked(t, rt)
	region := cluster.CopyRegion(part, tblOrders, backup)
	replica, _ := c.Node(backup).OrderedRegion(region)
	if off, _ := replica.Lookup(key); off == primaryOff {
		t.Fatal("the row sits at the same offset in both regions: the test shows nothing")
	}
	v0 := verbsOf(e)
	h1, m1, _ := rt.OrderedCacheStats()
	if got := read(); got != 700 {
		t.Fatalf("the promoted copy read %d", got)
	}
	if got := verbsOf(e).since(v0); got != (readerVerbs{1, 0, 0}) {
		t.Errorf("first read after the promotion: verbs %+v, want the shipped lookup alone", got)
	}
	if h, m, _ := rt.OrderedCacheStats(); h != h1 || m != m1+1 {
		t.Errorf("first read after the promotion: hits +%d, misses +%d; want a miss in the replica region's cache", h-h1, m-m1)
	}
	off, framed := e.cacheFor(backup, region).Loc(nil, key)
	if want, _ := replica.Lookup(key); !framed || off != want {
		t.Errorf("the replica region's frame: %d, %v; want %d", off, framed, want)
	}
	v0 = verbsOf(e)
	if got := read(); got != 700 || verbsOf(e).since(v0) != (readerVerbs{0, 0, 1}) {
		t.Errorf("warm read of the promoted copy: %d with verbs %+v", got, verbsOf(e).since(v0))
	}
}
