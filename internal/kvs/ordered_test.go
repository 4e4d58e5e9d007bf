package kvs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"drtm/internal/htm"
	"drtm/internal/memory"
)

func newOrdered(t testing.TB, cap int) *Ordered {
	t.Helper()
	return NewOrdered(OrderedConfig{Node: 0, RegionID: 10, Capacity: cap, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
}

func TestOrderedInsertGet(t *testing.T) {
	o := newOrdered(t, 64)
	if err := o.Insert(5, val(1, 2)); err != nil {
		t.Fatal(err)
	}
	v, ok := o.Get(5)
	if !ok || v[0] != 1 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if err := o.Insert(5, val(9, 9)); err != ErrExists {
		t.Fatalf("dup insert err = %v", err)
	}
	// Duplicate must not clobber the original.
	v, _ = o.Get(5)
	if v[0] != 1 {
		t.Fatal("duplicate insert corrupted record")
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d", o.Len())
	}
}

func TestOrderedDeleteRecycle(t *testing.T) {
	o := newOrdered(t, 2)
	_ = o.Insert(1, val(1, 1))
	_ = o.Insert(2, val(2, 2))
	if err := o.Insert(3, val(3, 3)); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if !o.Delete(1) {
		t.Fatal("delete failed")
	}
	if err := o.Insert(3, val(3, 3)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	if _, ok := o.Get(1); ok {
		t.Fatal("deleted key readable")
	}
	if o.Delete(1) {
		t.Fatal("double delete")
	}
}

func TestOrderedScanRange(t *testing.T) {
	o := newOrdered(t, 64)
	for k := uint64(10); k <= 50; k += 10 {
		_ = o.Insert(k, val(k, k))
	}
	var keys []uint64
	o.Scan(15, 45, func(k uint64, off memory.Offset) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 20 || keys[2] != 40 {
		t.Fatalf("scan = %v", keys)
	}
	keys = keys[:0]
	o.ScanDesc(0, 100, func(k uint64, off memory.Offset) bool {
		keys = append(keys, k)
		return len(keys) < 2
	})
	if len(keys) != 2 || keys[0] != 50 || keys[1] != 40 {
		t.Fatalf("desc scan = %v", keys)
	}
	if k, _, ok := o.Min(); !ok || k != 10 {
		t.Fatalf("Min = %d,%v", k, ok)
	}
}

func TestOrderedTransactionalReadWrite(t *testing.T) {
	o := newOrdered(t, 16)
	_ = o.Insert(7, val(1, 1))
	eng := o.Engine()
	err := eng.Run(func(tx *htm.Txn) error {
		if !o.WriteTx(tx, 7, val(5, 5)) {
			t.Error("WriteTx failed")
		}
		v, ok := o.ReadTx(tx, 7)
		if !ok || v[0] != 5 {
			t.Errorf("ReadTx inside txn = %v,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := o.Get(7)
	if v[0] != 5 {
		t.Fatal("committed write lost")
	}
	off, _ := o.Lookup(7)
	if Version(o.arena.LoadWord(off+EntryIncVerWord)) != 1 {
		t.Fatal("version not bumped")
	}
}

func TestOrderedConcurrentInserts(t *testing.T) {
	o := newOrdered(t, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(1); i <= 100; i++ {
				if err := o.Insert(base*1000+i, val(i, i)); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if o.Len() != 400 {
		t.Fatalf("Len = %d", o.Len())
	}
}

// TestOrderedFingerChurn replays one random churn of inserts, erases, dead
// entries (EnsureDead), their unlinking (RemoveEntry) and lookups on runs of
// adjacent keys against two shards — one through a finger, one without — and
// requires the same answer from every call, then the same index (keys, in
// order, at the same entry offsets) and the same free list: a finger changes
// how a leaf is reached, never what is found there or which slot is used.
func TestOrderedFingerChurn(t *testing.T) {
	const keys = 600
	for seed := int64(1); seed <= 4; seed++ {
		plain, fingered := newOrdered(t, keys), newOrdered(t, keys)
		var f Finger
		rng := rand.New(rand.NewSource(seed))
		hits := 0
		for step := 0; step < 400; step++ {
			base := uint64(rng.Intn(keys - 16))
			op := rng.Intn(5)
			for k := base; k < base+uint64(1+rng.Intn(16)); k++ {
				switch op {
				case 0, 1:
					perr := plain.Insert(k, val(k, uint64(step)))
					hit, ferr := fingered.InsertAt(&f, k, val(k, uint64(step)))
					if perr != ferr {
						t.Fatalf("seed %d step %d: Insert(%d) = %v, through the finger %v", seed, step, k, perr, ferr)
					}
					if hit {
						hits++
					}
				case 2:
					pd := plain.Delete(k)
					fd, hit := fingered.DeleteAt(&f, k)
					if pd != fd {
						t.Fatalf("seed %d step %d: Delete(%d) = %v, through the finger %v", seed, step, k, pd, fd)
					}
					if hit {
						hits++
					}
				case 3:
					// A dead entry, then (every other key) its unlinking.
					poff, perr := plain.EnsureDead(k)
					foff, ferr := fingered.EnsureDead(k)
					if poff != foff || perr != ferr {
						t.Fatalf("seed %d step %d: EnsureDead(%d) = %d, %v, beside the finger %d, %v",
							seed, step, k, poff, perr, foff, ferr)
					}
					if perr == nil && k%2 == 0 {
						if pr, fr := plain.RemoveEntry(k, poff), fingered.RemoveEntry(k, foff); pr != fr {
							t.Fatalf("seed %d step %d: RemoveEntry(%d) = %v, beside the finger %v", seed, step, k, pr, fr)
						}
					}
				case 4:
					poff, pok := plain.Lookup(k)
					foff, fok, hit := fingered.LookupAt(&f, k)
					if poff != foff || pok != fok {
						t.Fatalf("seed %d step %d: Lookup(%d) = %d, %v, through the finger %d, %v",
							seed, step, k, poff, pok, foff, fok)
					}
					if hit {
						hits++
					}
				}
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: runs of adjacent keys never hit the finger", seed)
		}
		type row struct {
			key uint64
			off memory.Offset
		}
		index := func(o *Ordered) (rows []row) {
			o.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool {
				rows = append(rows, row{k, off})
				return true
			})
			return rows
		}
		if p, g := index(plain), index(fingered); !slices.Equal(p, g) {
			t.Fatalf("seed %d: index through the finger %v, without %v", seed, g, p)
		}
		if !slices.Equal(plain.freeList, fingered.freeList) {
			t.Fatalf("seed %d: free list through the finger %v, without %v", seed, fingered.freeList, plain.freeList)
		}
	}
}
