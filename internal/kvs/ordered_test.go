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

// TestEnsureDeadBornState: a slot EnsureDead creates starts with the state
// word it was given; a dead entry it finds keeps its own, and a live one is
// ErrExists.
func TestEnsureDeadBornState(t *testing.T) {
	o := newOrdered(t, 4)
	const held, other = 0xA5, 0x5A
	off, created, err := o.EnsureDead(5, held)
	if err != nil || !created {
		t.Fatalf("EnsureDead of a new key = %d, %v, %v; want a created slot", off, created, err)
	}
	if s := o.Arena().LoadWord(StateOffset(off)); s != held {
		t.Fatalf("created slot's state = %#x, want %#x", s, held)
	}
	if Live(Incarnation(o.Arena().LoadWord(IncVerOffset(off)))) {
		t.Fatal("created slot is live")
	}
	again, created, err := o.EnsureDead(5, other)
	if err != nil || created || again != off {
		t.Fatalf("EnsureDead of a dead key = %d, %v, %v; want slot %d found", again, created, err, off)
	}
	if s := o.Arena().LoadWord(StateOffset(off)); s != held {
		t.Fatalf("found slot's state = %#x, want it untouched (%#x)", s, held)
	}
	if err := o.Insert(6, val(6, 6)); err != nil {
		t.Fatal(err)
	}
	if _, created, err := o.EnsureDead(6, held); err != ErrExists || created {
		t.Fatalf("EnsureDead of a live key = %v, %v; want ErrExists", created, err)
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
		v := make([]uint64, o.ValueWords())
		if ok := o.ReadTx(tx, 7, v); !ok || v[0] != 5 {
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

// checkOrderedFingerChurn replays one churn of inserts, erases, dead entries
// (EnsureDead), their unlinking (RemoveEntry), lookups and scans on runs of
// adjacent keys against two shards — one through a finger, one without — and
// requires the same answer from every call and intact leaf fences after it,
// then the same index (keys, in order, at the same entry offsets) and the same
// slots handed out and given back: a finger changes how a leaf is reached, never what is found there
// or which slot is used. Each step is two bytes: the operation and the length
// of the run, then where the run starts. It returns how often a remembered
// leaf served.
func checkOrderedFingerChurn(t *testing.T, steps []byte) (hits int) {
	t.Helper()
	const keys = 600
	plain, fingered := newOrdered(t, keys), newOrdered(t, keys)
	var f Finger
	count := func(via IndexPath) {
		if via == IndexHit {
			hits++
		}
	}
	for step := 0; step+1 < len(steps); step += 2 {
		op, run := steps[step]%6, 1+uint64(steps[step]/6)%16
		base := uint64(steps[step+1]) * (keys - 16) / 255
		for k := base; k < base+run; k++ {
			switch op {
			case 0, 1:
				perr := plain.Insert(k, val(k, uint64(step)))
				via, ferr := fingered.InsertAt(&f, k, val(k, uint64(step)))
				if perr != ferr {
					t.Fatalf("step %d: Insert(%d) = %v, through the finger %v", step, k, perr, ferr)
				}
				count(via)
			case 2:
				pd := plain.Delete(k)
				fd, via := fingered.DeleteAt(&f, k)
				if pd != fd {
					t.Fatalf("step %d: Delete(%d) = %v, through the finger %v", step, k, pd, fd)
				}
				count(via)
			case 3:
				// A dead entry, then (every other key) its unlinking.
				poff, _, perr := plain.EnsureDead(k, 0)
				foff, _, ferr := fingered.EnsureDead(k, 0)
				if poff != foff || perr != ferr {
					t.Fatalf("step %d: EnsureDead(%d) = %d, %v, beside the finger %d, %v",
						step, k, poff, perr, foff, ferr)
				}
				if perr == nil && k%2 == 0 {
					if pr, fr := plain.RemoveEntry(k, poff), fingered.RemoveEntry(k, foff); pr != fr {
						t.Fatalf("step %d: RemoveEntry(%d) = %v, beside the finger %v", step, k, pr, fr)
					}
				}
			case 4:
				poff, pok := plain.Lookup(k)
				foff, fok, via := fingered.LookupAt(&f, k)
				if poff != foff || pok != fok {
					t.Fatalf("step %d: Lookup(%d) = %d, %v, through the finger %d, %v",
						step, k, poff, pok, foff, fok)
				}
				count(via)
			case 5:
				var prow, frow []memory.Offset
				plain.Scan(k, base+run, func(_ uint64, off memory.Offset) bool {
					prow = append(prow, off)
					return true
				})
				count(fingered.ScanAt(&f, k, base+run, func(_ uint64, off memory.Offset) bool {
					frow = append(frow, off)
					return true
				}))
				if !slices.Equal(prow, frow) {
					t.Fatalf("step %d: Scan(%d, %d) = %v, through the finger %v", step, k, base+run, prow, frow)
				}
			}
			if err := fingered.tree.CheckFences(); err != nil {
				t.Fatalf("step %d, key %d: %v", step, k, err)
			}
		}
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
		t.Fatalf("index through the finger %v, without %v", g, p)
	}
	if p, g := plain.entries, fingered.entries; p.used != g.used || !slices.Equal(p.recycled, g.recycled) {
		t.Fatalf("slots through the finger %d used, %v recycled; without %d, %v", g.used, g.recycled, p.used, p.recycled)
	}
	return hits
}

// TestOrderedFingerChurn runs the churn property on random steps, long enough
// to fill the shard and split its leaves many times over.
func TestOrderedFingerChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		steps := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(steps)
		if checkOrderedFingerChurn(t, steps) == 0 {
			t.Fatalf("seed %d: runs of adjacent keys never hit the finger", seed)
		}
	}
}

// FuzzOrderedFingerChurn runs the churn property on the corpus: the shard's
// first leaf filled through the finger and split by one key more, a leaf
// emptied behind the finger and refilled, dead entries made and unlinked in a
// remembered leaf.
func FuzzOrderedFingerChurn(f *testing.F) {
	const ins16, del16, dead16, get16, scan16 = 0 + 6*15, 2 + 6*15, 3 + 6*15, 4 + 6*15, 5 + 6*15
	f.Add([]byte{ins16, 0, ins16, 7, get16, 0, ins16, 14, get16, 0, scan16, 7, ins16, 3})
	f.Add([]byte{ins16, 0, ins16, 7, ins16, 14, del16, 0, get16, 0, scan16, 0, ins16, 0, del16, 14, ins16, 14})
	f.Add([]byte{ins16, 100, dead16, 107, get16, 107, dead16, 100, scan16, 100, ins16, 107, dead16, 107})
	f.Fuzz(func(t *testing.T, steps []byte) {
		checkOrderedFingerChurn(t, steps[:min(len(steps), 400)])
	})
}
