package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
)

// fbEquivRig is equivRig with a hash table beside the indexed ordered one,
// logging on and f backups per partition, so a commit leaves its whole trail:
// table words and its commit record — a write-ahead record at f = 0, a redo
// record and no write-ahead record beside it at f = 1, on either path.
func fbEquivRig(t *testing.T, f int) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	cfg.Durability = true
	cfg.ReplicationFactor = f
	c := cluster.New(cfg)
	rt := NewRuntime(c, func(table int, key uint64) int {
		if table == tblAccounts {
			return int(key) % 2
		}
		return int(key>>8) % 2
	})
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	rt.DefineOrderedSeg(tblOrders, 4096, 2, 8)
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF }})
	return rt, rt.Executor(0, 0)
}

// storeImage dumps every entry of the rig's primary copies — dead ordered
// entries included — as comparable words: the incarnation|version head and the
// value of a live entry. State words are left out because the fallback leases
// the local rows it reads and a region does not.
func storeImage(t *testing.T, rt *Runtime) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	for k, row := range primaryRows(rt) {
		name := fmt.Sprintf("ordered%d/%#x", k.table, k.key)
		if k.table == tblAccounts {
			name = fmt.Sprintf("hash/%d", k.key)
		}
		vw := rt.Meta(k.table).ValueWords
		img := make([]uint64, kvs.EntryValueWord+vw)
		row.arena.Read(img, row.off)
		if clock.IsWriteLocked(img[kvs.EntryStateWord]) {
			t.Errorf("%s left write-locked", name)
		}
		words := []uint64{img[kvs.EntryIncVerWord]}
		if kvs.Live(kvs.Incarnation(img[kvs.EntryIncVerWord])) {
			words = append(words, img[kvs.EntryValueWord:kvs.EntryValueWord+vw]...)
		}
		out[name] = words
	}
	return out
}

// rowAt is where an entry lives.
type rowAt struct {
	arena *memory.Arena
	off   memory.Offset
}

// primaryRows locates every entry of fbEquivRig's primary copies, dead ordered
// entries included.
func primaryRows(rt *Runtime) map[refKey]rowAt {
	out := map[refKey]rowAt{}
	for n := 0; n < rt.C.Nodes(); n++ {
		h := rt.C.Node(n).Unordered(tblAccounts)
		for k := uint64(1); k <= 64; k++ {
			if off, ok := h.LookupLocal(k); ok {
				out[refKey{tblAccounts, k}] = rowAt{h.Arena(), off}
			}
		}
		for _, table := range []int{tblOrders, tblOrderIdx} {
			o := rt.C.Node(n).Ordered(table)
			o.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool {
				out[refKey{table, k}] = rowAt{o.Arena(), off}
				return true
			})
		}
	}
	return out
}

// commitTrail returns what the executor's last commit logged — call it right
// after the commit: the next transaction restarts the write-ahead log, and this
// drains the rings — the write-ahead records and the redo records on the
// backups, one format decoded by one iterator, each record's updates put in
// one order (a region logs its local records first, the fallback everything in
// lock order). Transaction ids are dropped, and an empty value is nil.
func commitTrail(t *testing.T, rt *Runtime, e *Executor) (wal, redo [][]nvram.RedoUpdate) {
	t.Helper()
	decode := func(rec []uint64) []nvram.RedoUpdate {
		it, ok := nvram.IterRedo(rec)
		if !ok {
			t.Fatalf("malformed commit record %v", rec)
		}
		var ups []nvram.RedoUpdate
		for u, more := it.Next(); more; u, more = it.Next() {
			u.Val = append([]uint64(nil), u.Val...) // rec is a scan buffer
			ups = append(ups, u)
		}
		sort.Slice(ups, func(i, j int) bool {
			if ups[i].Table != ups[j].Table {
				return ups[i].Table < ups[j].Table
			}
			return ups[i].Key < ups[j].Key
		})
		return ups
	}
	for _, rec := range logRecords(e.w.WriteAheadLog) {
		wal = append(wal, decode(rec))
	}
	if rt.C.ReplicationFactor() == 0 {
		return wal, nil
	}
	for b := 0; b < rt.C.Nodes(); b++ {
		rt.C.RedoSinkAt(b, e.w.Node.ID, e.w.ID).Drain(func(rec []uint64) {
			redo = append(redo, decode(rec))
		})
	}
	return wal, redo
}

// TestFallbackCommitEquivalence is the property behind the one commit path:
// the same random transactions — reads, writes, inserts and erases of indexed
// rows and hash rows, local, remote and mixed — committed through the HTM
// region on one rig and forced through the software fallback on a twin rig
// (the body aborts its region, explicitly, after its last write, with a
// fallback threshold of one) leave identical tables and indexes, identical
// incarnation|version words, and log identical commit records: write-ahead
// records at f = 0, redo records at f = 1. Some rows are declared twice — a
// read before the row's erase, a write after its insert — so one record
// carries both accesses on either path. Each case is named
// depth0/seed<n>/f=<f>: entries carry no version chain.
func TestFallbackCommitEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("depth0/seed%d", seed), func(t *testing.T) {
			for f := 0; f <= 1; f++ {
				t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
					fallbackCommitEquivalence(t, seed, f)
				})
			}
		})
	}
}

const fbEquivTxns = 200

func fallbackCommitEquivalence(t *testing.T, seed int64, f int) {
	type rig struct {
		rt *Runtime
		e  *Executor
	}
	var rigs [2]rig // 0 commits through the region, 1 through the fallback
	for i := range rigs {
		rigs[i].rt, rigs[i].e = fbEquivRig(t, f)
	}
	// Hash keys 1..16 are read-only, 17..64 read-write. Of each entity's ordered
	// rows, sub-keys 1..8 are read-only, 9..16 read-write, 17..40 come and go
	// (half of them live at the start). A lease never expires here, so what is
	// read is never written.
	live := map[uint64]bool{}
	for i := range rigs {
		r := &rigs[i]
		for k := uint64(1); k <= 64; k++ {
			if err := r.e.Exec(func(tx *Tx) error {
				return tx.Execute(func(lc *Local) error {
					lc.Insert(tblAccounts, k, []uint64{1000, k})
					return nil
				})
			}); err != nil {
				t.Fatalf("populate %d: %v", k, err)
			}
		}
		for ent := uint64(0); ent < 4; ent++ {
			for sub := uint64(1); sub <= 40; sub++ {
				if sub > 16 && sub%2 == 0 {
					continue
				}
				insertOrders(t, r.e, ent, []uint64{sub})
				live[orderedKey(ent, sub)] = true
			}
		}
		commitTrail(t, r.rt, r.e) // the populate's redo records, drained
		r.rt.C.Obs.Reset()
	}
	rigs[1].rt.FallbackThreshold = 1

	rng := rand.New(rand.NewSource(seed))
	nwal, nredo := 0, 0
	for n := 0; n < fbEquivTxns; n++ {
		var accs []Access
		used, gone := map[refKey]bool{}, map[refKey]bool{}
		for len(accs) < 1+rng.Intn(6) {
			ent := uint64(rng.Intn(4))
			var a, then Access // then: a second access of the same row, if any
			switch c := rng.Intn(14); {
			case c < 2:
				a = Access{Table: tblAccounts, Key: uint64(1 + rng.Intn(16))}
			case c < 4:
				a = Access{Table: tblAccounts, Key: uint64(17 + rng.Intn(48)), Write: true}
			case c < 7:
				a = Access{Table: tblOrders, Key: orderedKey(ent, uint64(1+rng.Intn(8)))}
			case c < 9:
				a = Access{Table: tblOrders, Key: orderedKey(ent, uint64(9+rng.Intn(8))), Write: true}
			default:
				key := orderedKey(ent, uint64(17+rng.Intn(24)))
				switch {
				case !live[key]:
					a = Access{Table: tblOrders, Key: key, Insert: []uint64{uint64(n), key & 0xFF}}
					if c == 13 {
						then = Access{Table: tblOrders, Key: key, Write: true}
					}
				case c == 9:
					a, then = Access{Table: tblOrders, Key: key}, Access{Table: tblOrders, Key: key, Erase: true}
					gone[refKey{tblOrders, key}] = true
				case c < 12:
					a = Access{Table: tblOrders, Key: key, Erase: true}
				default:
					a = Access{Table: tblOrders, Key: key, Write: true}
				}
			}
			if k := (refKey{a.Table, a.Key}); !used[k] {
				used[k] = true
				accs = append(accs, a)
				if then.Table != 0 {
					accs = append(accs, then)
				}
			}
		}
		for i := range rigs {
			r := &rigs[i]
			err := r.e.Exec(func(tx *Tx) error {
				if err := tx.Stage(accs...); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					for _, a := range accs {
						if a.Insert != nil || a.Erase {
							continue
						}
						v, err := lc.Read(a.Table, a.Key)
						if errors.Is(err, ErrNotFound) && gone[refKey{a.Table, a.Key}] {
							continue // read, then erased by this transaction
						}
						if err != nil {
							return err
						}
						if a.Write {
							if err := lc.Write(a.Table, a.Key, []uint64{v[0] + uint64(n), v[1]}); err != nil {
								return err
							}
						}
					}
					if i == 1 && lc.htx != nil {
						lc.htx.Abort(99) // every write made: on to the fallback
					}
					return nil
				})
			})
			if err != nil {
				t.Fatalf("txn %d, rig %d (%+v): %v", n, i, accs, err)
			}
		}
		for _, a := range accs {
			if a.Insert != nil {
				live[a.Key] = true
			} else if a.Erase {
				delete(live, a.Key)
			}
		}
		rwal, rredo := commitTrail(t, rigs[0].rt, rigs[0].e)
		fwal, fredo := commitTrail(t, rigs[1].rt, rigs[1].e)
		if !reflect.DeepEqual(rwal, fwal) {
			t.Fatalf("txn %d (%+v): WAL differs\nregion   %+v\nfallback %+v", n, accs, rwal, fwal)
		}
		if !reflect.DeepEqual(rredo, fredo) {
			t.Fatalf("txn %d (%+v): redo records differ\nregion   %+v\nfallback %+v", n, accs, rredo, fredo)
		}
		nwal, nredo = nwal+len(rwal), nredo+len(rredo)
	}

	region, fallback := storeImage(t, rigs[0].rt), storeImage(t, rigs[1].rt)
	for name, want := range region {
		if got, ok := fallback[name]; !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: region %#x, fallback %#x", name, want, got)
		}
	}
	if len(fallback) != len(region) {
		t.Errorf("%d entries after the region commits, %d after the fallback's", len(region), len(fallback))
	}
	if got := len(liveRows(rigs[1].rt, tblOrders)); got != len(live) {
		t.Errorf("%d live base rows, the model has %d", got, len(live))
	}
	a, b := rigs[0].rt.C.Obs.Snapshot(), rigs[1].rt.C.Obs.Snapshot()
	if a.Counter(obs.EvFallback) != 0 || b.Counter(obs.EvFallback) != fbEquivTxns {
		t.Errorf("fallbacks: region rig %d, fallback rig %d, want 0 and %d", a.Counter(obs.EvFallback), b.Counter(obs.EvFallback), fbEquivTxns)
	}
	for _, ev := range []obs.Event{obs.EvTxCommit, obs.EvTxRetry, obs.EvIndexMaint, obs.EvRemoveDead, obs.EvLogAppend} {
		if a.Counter(ev) != b.Counter(ev) {
			t.Errorf("%v: region %d, fallback %d", ev, a.Counter(ev), b.Counter(ev))
		}
	}
	if f == 0 && (nwal == 0 || nredo != 0) || f > 0 && (nwal != 0 || nredo == 0) {
		t.Errorf("f = %d: %d write-ahead and %d redo records, want only the one kind of commit record", f, nwal, nredo)
	}
	t.Logf("%d entries, %d WAL records and %d redo records compared; %d index rows, %d removals",
		len(region), nwal, nredo, a.Counter(obs.EvIndexMaint), a.Counter(obs.EvRemoveDead))
}
