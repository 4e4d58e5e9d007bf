package tx

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Tests of the two rules of ordered speculative reads: a shipped lookup's reply
// carries the entry it found, which serves a speculative read in place of a
// READ and nothing else; and a read-only transaction of one speculative,
// one-line record confirms nothing.

// readerVerbs is what the reader's queue pair has sent so far.
type readerVerbs struct{ msgs, cas, reads int64 }

func verbsOf(e *Executor) readerVerbs {
	sh := e.w.Obs
	return readerVerbs{sh.Count(obs.EvVerbsMsg), sh.Count(obs.EvRDMACAS), sh.Count(obs.EvRDMARead)}
}

func (a readerVerbs) since(b readerVerbs) readerVerbs {
	return readerVerbs{a.msgs - b.msgs, a.cas - b.cas, a.reads - b.reads}
}

// rewrite commits a new value to a tblOrders row from its home node.
func rewrite(t testing.TB, home *Executor, key, v uint64) {
	t.Helper()
	if err := home.Exec(func(tx *Tx) error {
		if err := tx.W(tblOrders, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblOrders, key, []uint64{v, v})
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShippedImageEquivalence: whatever state the entry is in — live, dead,
// write-locked, its slot recycled for another key — the image a shipped
// lookup's reply carries and a one-sided READ of the replied offset are the
// same words, get the same verdict from recHandle.check and leave the same
// recImage.
func TestShippedImageEquivalence(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	home, e := rt.Executor(1, 0), rt.Executor(0, 0)
	insertOrders(t, home, 1, []uint64{1, 3})
	live, dead, locked := orderedKey(1, 1), orderedKey(1, 2), orderedKey(1, 3)
	// A dead entry in the tree: an insert's structural half, whose flip to live
	// never committed (a committed erase's entry is unlinked at its commit).
	if _, err := rt.C.Node(1).Ordered(tblOrders).EnsureDead(dead); err != nil {
		t.Fatal(err)
	}
	holder := home.newTx()
	if err := holder.stageRemote(tblOrders, locked, 1, tblOrders, 1, true); err != nil {
		t.Fatal(err)
	}
	defer holder.releaseLocks()

	vw := rt.Meta(tblOrders).ValueWords
	// both resolves key by a shipped lookup and returns, for a reader holding
	// handle h (whose key may be another: a stale location), the verdicts and
	// images of the reply and of a READ of the replied offset.
	both := func(h recHandle, key uint64, spec bool) (v1, v2 imgVerdict, m1, m2 recImage) {
		t.Helper()
		r := h
		r.key = key
		found, err := e.shipOne(&r, false)
		if err != nil || !found {
			t.Fatalf("shipped lookup of %#x: found %v, %v", key, found, err)
		}
		reply := slices.Clone(e.image(kvs.EntryValueWord + vw))
		read := make([]uint64, kvs.EntryValueWord+vw)
		if err := e.w.QP.TryRead(r.node, r.region, r.off, read); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(reply, read) {
			t.Fatalf("key %#x: reply %x, READ %x", key, reply, read)
		}
		h.off = r.off
		v1 = h.check(reply, &m1, vw, false, spec)
		v2 = h.check(read, &m2, vw, false, spec)
		return
	}
	for _, tc := range []struct {
		name     string
		key, at  uint64 // the reader's key, and the key whose entry it is shown
		spec     bool
		want     imgVerdict
		wantVal0 uint64
	}{
		{"live, speculative", live, live, true, imgOK, 100},
		{"live, protected", live, live, false, imgOK, 100},
		{"dead", dead, dead, true, imgNotFound, 0},
		{"write-locked, speculative", locked, locked, true, imgBusy, 0},
		{"write-locked, own lock", locked, locked, false, imgOK, 300},
		{"recycled slot", dead, live, true, imgStale, 0}, // the slot holds another key now
	} {
		h := e.handle(tblOrders, tc.key)
		v1, v2, m1, m2 := both(h, tc.at, tc.spec)
		if v1 != tc.want || v2 != tc.want {
			t.Errorf("%s: verdict of the reply %d, of the READ %d, want %d", tc.name, v1, v2, tc.want)
		}
		if m1.inc != m2.inc || m1.version != m2.version || !slices.Equal(m1.buf, m2.buf) {
			t.Errorf("%s: images differ: %+v vs %+v", tc.name, m1, m2)
		}
		if tc.want == imgOK && m1.buf[0] != tc.wantVal0 {
			t.Errorf("%s: value %v, want %d first", tc.name, m1.buf, tc.wantVal0)
		}
	}
}

// TestShippedImageServesOnlySpeculation counts the reader's verbs per arm on a
// remote ordered row, cold (no frame of the row in the location cache) and warm
// (one from an earlier speculative read-only read). Cold, a speculative read is
// the message and nothing else; warm, a read-only one is one READ at the cached
// offset and no message. Every other path sends its message as before, warm
// frame or not, and never asks the cache: a leased read — static or escalated —
// posts its lease CAS and its READ behind the lookup; a read-write transaction's
// speculative and write-staged rows resolve in stageBatch; the fallback's take
// and an escalated scan's pins CAS or pin at the offset they are given.
func TestShippedImageServesOnlySpeculation(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	rt.FallbackThreshold = 1
	home, e := rt.Executor(1, 0), rt.Executor(0, 0)
	insertOrders(t, home, 1, []uint64{1, 2, 0x81})
	key, other, far := orderedKey(1, 1), orderedKey(1, 2), orderedKey(1, 0x81)
	keys := []uint64{key, other, far}
	reg := rt.C.Obs
	ro := func(p ReadPolicy, keys ...uint64) {
		t.Helper()
		if err := e.ExecROWith(p, func(ro *RO) error {
			for _, k := range keys {
				if v, err := ro.Read(tblOrders, k); err != nil {
					return err
				} else if v[1] != k&0xFF {
					t.Errorf("key %#x read %v", k, v)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// escalated runs one attempt as ExecRO's ninth would: leased, scans pinned.
	escalated := func(build func(ro *RO) error) {
		t.Helper()
		ro := &RO{e: e, index: map[refKey]*remoteRec{}, policy: PolicyLease, waits: true,
			end: e.w.Node.Clock.Read() + rt.C.Config().ROLeaseMicros}
		defer ro.release()
		if err := build(ro); err != nil {
			t.Fatal(err)
		}
		if !ro.confirm() {
			t.Fatal("the escalated attempt did not confirm")
		}
	}
	rw := func(write, fallback bool) {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: key, Write: write}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				if fallback && lc.htx != nil {
					lc.htx.Abort(99) // on to the fallback, which takes the row again
				}
				v, err := lc.Read(tblOrders, key)
				if err != nil || !write {
					return err
				}
				return lc.Write(tblOrders, key, v)
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	cache := e.cacheFor(1, tblOrders)
	asked := func() int64 {
		h, m, _ := rt.OrderedCacheStats()
		return h + m
	}

	for _, tc := range []struct {
		name                   string
		run                    func()
		cold, warm             readerVerbs
		images, singles, grant int64 // cold; warm differs by the images alone
		asks                   int64 // cache lookups, cold and warm alike
	}{
		{"one-record read-only, speculative", func() { ro(PolicyAdaptive, key) },
			readerVerbs{1, 0, 0}, readerVerbs{0, 0, 1}, 1, 1, 0, 1},
		{"two-record read-only, speculative", func() { ro(PolicyAdaptive, key, other) },
			readerVerbs{2, 0, 2}, readerVerbs{0, 0, 4}, 2, 0, 0, 2},
		{"read-only under leases", func() { ro(PolicyLease, key) },
			readerVerbs{1, 1, 1}, readerVerbs{1, 1, 1}, 0, 0, 1, 0},
		{"read-only under leases, another row", func() { ro(PolicyLease, far) },
			readerVerbs{1, 1, 1}, readerVerbs{1, 1, 1}, 0, 0, 1, 0},
		{"read-only, escalated", func() {
			escalated(func(ro *RO) error { _, err := ro.Read(tblOrders, key); return err })
		}, readerVerbs{1, 1, 1}, readerVerbs{1, 1, 1}, 0, 0, 1, 0},
		{"read-only, escalated scan pins its rows", func() {
			escalated(func(ro *RO) error { _, err := ro.Scan(tblOrders, key, other, 0); return err })
		}, readerVerbs{1, 2, 3}, readerVerbs{1, 2, 3}, 0, 0, 2, 0}, // the scan, a lease per row; confirming re-READs the stamp and both headers
		{"read-write, speculative read", func() { rw(false, false) },
			readerVerbs{1, 0, 1}, readerVerbs{1, 0, 1}, 1, 0, 0, 0}, // the READ is the commit's validation
		{"read-write, write-staged", func() { rw(true, false) },
			readerVerbs{1, 1, 1}, readerVerbs{1, 1, 1}, 0, 0, 0, 0},
		{"read-write, the fallback takes the row", func() { rw(true, true) },
			readerVerbs{2, 2, 2}, readerVerbs{2, 2, 2}, 0, 0, 0, 0}, // staged, released, resolved and locked again
	} {
		for _, warm := range []bool{false, true} {
			want, images, temp := tc.cold, tc.images, "cold"
			if warm {
				want, images, temp = tc.warm, tc.images-tc.asks, "warm"
			}
			for _, k := range keys {
				cache.DropLoc(nil, k)
				if warm {
					ro(PolicyAdaptive, k)
				}
				// Earlier leases must not be shared by this run.
				o := rt.C.Node(1).Ordered(tblOrders)
				off, _ := o.Lookup(k)
				o.Arena().StoreWord(kvs.StateOffset(off), clock.Init)
			}
			v0, asked0 := verbsOf(e), asked()
			img0, single0, grant0 := reg.Total(obs.EvShipImage), reg.Total(obs.EvROSingle), reg.Total(obs.EvLeaseGrant)
			tc.run()
			if got := verbsOf(e).since(v0); got != want {
				t.Errorf("%s, %s: verbs %+v, want %+v", tc.name, temp, got, want)
			}
			if got := asked() - asked0; got != tc.asks {
				t.Errorf("%s, %s: the location cache was asked %d times, want %d", tc.name, temp, got, tc.asks)
			}
			if got := reg.Total(obs.EvShipImage) - img0; got != images {
				t.Errorf("%s, %s: %d replied images consumed, want %d", tc.name, temp, got, images)
			}
			if got := reg.Total(obs.EvROSingle) - single0; got != tc.singles {
				t.Errorf("%s, %s: %d confirmations skipped, want %d", tc.name, temp, got, tc.singles)
			}
			if got := reg.Total(obs.EvLeaseGrant) - grant0; got != tc.grant {
				t.Errorf("%s, %s: %d leases granted, want %d", tc.name, temp, got, tc.grant)
			}
		}
	}
}

// TestROSingleRecordRule walks the rule's conditions with a writer that commits
// between the fetch and the confirmation: one speculative one-line record
// serializes at its fetch and confirms; a second record, a collected scan or a
// row wider than a cache line re-validates and fails; a leased record is
// confirmed by its lease, as ever. The tblOrders rows are warm — fetched by one
// READ at a cached offset, which is as atomic as a replied image and no more: a
// warm two-record transaction still fails its confirmation.
func TestROSingleRecordRule(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	rt.DefineOrderedSeg(tblWideOrdered, 32, wideWords, 8)
	home, e := rt.Executor(1, 0), rt.Executor(0, 0)
	insertOrders(t, home, 1, []uint64{1, 2})
	key, other := orderedKey(1, 1), orderedKey(1, 2)
	wide := orderedKey(1, 1)
	if err := rt.C.Node(1).Ordered(tblWideOrdered).Insert(wide, wideVal(7)); err != nil {
		t.Fatal(err)
	}
	reg := rt.C.Obs
	if err := e.ExecROWith(PolicyAdaptive, func(ro *RO) error { // fills both rows' frames
		_, err := ro.Read(tblOrders, key)
		if err == nil {
			_, err = ro.Read(tblOrders, other)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name    string
		policy  ReadPolicy
		build   func(ro *RO) error
		rewrite func(v uint64)
		confirm bool // what confirm says with the rewrite in between
		single  int64
		hits    int64 // reads served at a cached offset
	}{
		{"one record", PolicyAdaptive, func(ro *RO) error {
			_, err := ro.Read(tblOrders, key)
			return err
		}, nil, true, 1, 1},
		{"two records", PolicyAdaptive, func(ro *RO) error {
			if _, err := ro.Read(tblOrders, key); err != nil {
				return err
			}
			_, err := ro.Read(tblOrders, other)
			return err
		}, nil, false, 0, 2},
		{"one record and a scan", PolicyAdaptive, func(ro *RO) error {
			if _, err := ro.Read(tblOrders, key); err != nil {
				return err
			}
			_, err := ro.Scan(tblOrders, other, other, 0)
			return err
		}, nil, false, 0, 1},
		{"one leased record", PolicyLease, func(ro *RO) error {
			_, err := ro.Read(tblOrders, key)
			return err
		}, func(uint64) {}, true, 0, 0}, // no writer gets past a lease
		{"one two-line record", PolicyAdaptive, func(ro *RO) error {
			_, err := ro.Read(tblWideOrdered, wide)
			return err
		}, func(v uint64) {
			if err := home.Exec(func(tx *Tx) error {
				if err := tx.W(tblWideOrdered, wide); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error { return lc.Write(tblWideOrdered, wide, wideVal(v)) })
			}); err != nil {
				t.Fatal(err)
			}
		}, false, 0, 0},
	} {
		ro := &RO{e: e, index: map[refKey]*remoteRec{}, policy: tc.policy,
			end: e.w.Node.Clock.Read() + rt.C.Config().ROLeaseMicros}
		hits0, _, _ := rt.OrderedCacheStats()
		if err := tc.build(ro); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hits, _, _ := rt.OrderedCacheStats(); hits-hits0 != tc.hits {
			t.Errorf("%s: %d reads at a cached offset, want %d", tc.name, hits-hits0, tc.hits)
		}
		if tc.rewrite == nil {
			rewrite(t, home, key, uint64(1000+i))
		} else {
			tc.rewrite(uint64(1000 + i))
		}
		single0, reads0 := reg.Total(obs.EvROSingle), verbsOf(e).reads
		if got := ro.confirm(); got != tc.confirm {
			t.Errorf("%s: confirm = %v, want %v", tc.name, got, tc.confirm)
		}
		if got := reg.Total(obs.EvROSingle) - single0; got != tc.single {
			t.Errorf("%s: EvROSingle moved by %d, want %d", tc.name, got, tc.single)
		}
		if tc.single == 1 && verbsOf(e).reads != reads0 {
			t.Errorf("%s: the skipped confirmation posted a READ", tc.name)
		}
		ro.release()
		off, _ := rt.C.Node(1).Ordered(tblOrders).Lookup(key) // drop the lease case's lease
		rt.C.Node(1).Ordered(tblOrders).Arena().StoreWord(kvs.StateOffset(off), clock.Init)
	}
}

// TestROSingleRecordSerializes: a one-record read-only transaction racing
// unthrottled writers of its row — a local HTM writer on the row's home and a
// remote one that locks it, writes it back and releases with one WRITE — only
// ever returns a value some commit installed, whole, although it confirms
// nothing: five equal words of a row that fills its cache line. The reader is
// remote (the shipped image once, then one READ at the cached offset), local,
// and a hash table's (one READ); the wide control row spans two lines and keeps
// its confirmation.
func TestROSingleRecordSerializes(t *testing.T) {
	const (
		tblLine = 13 // ordered, 3 + 5 words: one cache line
		tblHash = 14 // hash, the same row
		words   = memoryLineValueWords
		rounds  = 1000
	)
	val := func(v uint64) []uint64 {
		out := make([]uint64, words)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		table  int
		reader int // the reader's node; the row lives on node 1
		single bool
	}{
		{"ordered, remote reader", tblLine, 0, true},
		{"ordered, local reader", tblLine, 1, true},
		{"hash, remote reader", tblHash, 0, true},
		{"ordered two-line row, remote reader", tblWideOrdered, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, stop := newOrderedRig(t, 2, 3, nil)
			defer stop()
			rt.ReadPolicy = PolicyAdaptive
			rt.DefineOrderedSeg(tblLine, 32, words, 8)
			rt.DefineOrderedSeg(tblWideOrdered, 32, wideWords, 8)
			rt.DefineUnordered(tblHash, 16, 16, 32, words)
			key := orderedKey(1, 1)
			n := words
			if tc.table == tblWideOrdered {
				n = wideWords
			}
			row := func(v uint64) []uint64 { return val(v)[:min(n, words)] }
			if n > words {
				row = wideVal
			}
			var err error
			if tc.table == tblHash {
				err = rt.C.Node(1).Unordered(tc.table).Insert(key, row(1))
			} else {
				err = rt.C.Node(1).Ordered(tc.table).Insert(key, row(1))
			}
			if err != nil {
				t.Fatal(err)
			}
			var stopped atomic.Bool
			var wg sync.WaitGroup
			for _, w := range []*Executor{rt.Executor(1, 1), rt.Executor(0, 1)} { // local HTM, remote locking
				wg.Add(1)
				go func(w *Executor, v uint64) {
					defer wg.Done()
					for ; !stopped.Load(); v += 2 {
						err := w.Exec(func(tx *Tx) error {
							if err := tx.W(tc.table, key); err != nil {
								return err
							}
							return tx.Execute(func(lc *Local) error { return lc.Write(tc.table, key, row(v)) })
						})
						if err != nil {
							t.Error(err)
							return
						}
						// The local writer posts no verb: on one core it would
						// not yield before the scheduler's 10 ms tick.
						runtime.Gosched()
					}
				}(w, uint64(2+w.w.Node.ID))
			}
			reader := rt.Executor(tc.reader, 0)
			got := make([]uint64, n)
			for i := 0; i < rounds && !t.Failed(); i++ {
				// The body's value is the attempt's: only a committed one is owed
				// to be whole (the two-line row's may be torn until it confirms).
				if err := reader.ExecRO(func(ro *RO) error {
					v, err := ro.Read(tc.table, key)
					copy(got, v)
					return err
				}); err != nil {
					t.Error(err)
				}
				for _, w := range got {
					if w != got[0] || w == 0 {
						t.Errorf("read %v: not one commit's value", got)
						break
					}
				}
			}
			stopped.Store(true)
			wg.Wait()
			reg := rt.C.Obs
			commits, singles := reg.Total(obs.EvROCommit), reg.Total(obs.EvROSingle)
			// An attempt escalated to leases (the writers won eight in a row)
			// confirms its lease instead.
			if tc.single && singles+reg.Total(obs.EvTxEscalate) < commits {
				t.Errorf("%d of %d commits skipped their confirmation, want all", singles, commits)
			}
			if !tc.single && singles != 0 {
				t.Errorf("%d commits of a two-line row skipped their confirmation", singles)
			}
			// Past its first, a remote reader's ordered reads are warm: one READ at
			// the cached offset, racing the writers as the replied image did.
			if hits, _, _ := rt.OrderedCacheStats(); tc.table == tblLine && tc.reader == 0 && hits < rounds/2 {
				t.Errorf("%d of %d reads were served at a cached offset", hits, rounds)
			}
		})
	}
}

// memoryLineValueWords is the widest value whose entry image is one cache line.
const memoryLineValueWords = 8 - kvs.EntryValueWord

// TestShippedLookupFaultAtEveryVerb is TestStartPhaseFaultAtEveryVerb for
// ordered rows, whose Start phase is shorter by the speculative fetch: the
// shipped message, then the write's lock CAS and fused READ, then under leases
// the read's CAS and READ. A fault at the message loses the request before the
// host sees it; the whole message goes again and the image the retry's reply
// brings — not what the pooled buffer held from the transaction before — is the
// one consumed.
func TestShippedLookupFaultAtEveryVerb(t *testing.T) {
	for _, p := range []ReadPolicy{PolicyLease, PolicyAdaptive} {
		verbs := 5
		if p == PolicyAdaptive {
			verbs = 3
		}
		for k := 1; k <= verbs; k++ {
			rt, stop := newOrderedRig(t, 2, 1, nil)
			rt.ReadPolicy = p
			home, e := rt.Executor(1, 0), rt.Executor(0, 0)
			insertOrders(t, home, 1, []uint64{1, 2, 3})
			run := func(read, write uint64) (got uint64, err error) {
				err = e.Exec(func(tx *Tx) error {
					if err := tx.Stage(Access{Table: tblOrders, Key: orderedKey(1, read)},
						Access{Table: tblOrders, Key: orderedKey(1, write), Write: true}); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						a, err := lc.Read(tblOrders, orderedKey(1, read))
						if err != nil {
							return err
						}
						got = a[0]
						return lc.Write(tblOrders, orderedKey(1, write), []uint64{a[0] + 1, write})
					})
				})
				return got, err
			}
			if _, err := run(3, 2); err != nil { // leaves row 3's image in the pooled buffers
				t.Fatal(err)
			}
			retries := e.w.Obs.Count(obs.EvLockRetry)
			plan := rdma.NewFaultPlan(1)
			plan.ScriptFaults(0, 1, k)
			rt.C.Fabric.SetFaultPlan(plan)
			got, err := run(1, 2)
			v, _ := liveOrderedVal(rt, 1, tblOrders, orderedKey(1, 2))
			switch {
			case err != nil:
				t.Errorf("%v, fault at verb %d: %v", p, k, err)
			case rt.C.Obs.Total(obs.EvVerbFault) != 1:
				t.Errorf("%v, fault at verb %d: %d faults drawn, want the scripted one", p, k, rt.C.Obs.Total(obs.EvVerbFault))
			case k == 1 && e.w.Obs.Count(obs.EvLockRetry)-retries != 1:
				t.Errorf("%v: the lost message was sent again %d times, want once", p, e.w.Obs.Count(obs.EvLockRetry)-retries)
			case got != 100 || v[0] != 101:
				t.Errorf("%v, fault at verb %d: read %d, wrote %v; want 100 and 101", p, k, got, v)
			}
			stop()
		}
	}
}
