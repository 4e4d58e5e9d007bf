package btree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkFingerEquivalence replays ops on three trees — one driven without a
// finger, one through a finger used by every operation, one through a finger
// used by every seventh operation only, so that it is stale (its leaf split,
// emptied or refilled by the operations in between) nearly every time it is
// used — and requires identical answers at every step and identical contents
// at the end. Each op byte picks the operation with its top two bits and the
// key with the rest, scaled by spread so that long inputs split leaves.
func checkFingerEquivalence(t *testing.T, ops []byte, spread uint64) {
	t.Helper()
	plain, fingered, stale := New(), New(), New()
	var ff, sf Finger
	type rig struct {
		name string
		tr   *Tree
		f    func(i int) *Finger
	}
	rigs := []rig{
		{"no finger", plain, func(int) *Finger { return nil }},
		{"finger", fingered, func(int) *Finger { return &ff }},
		{"stale finger", stale, func(i int) *Finger {
			if i%7 == 0 {
				return &sf
			}
			return nil
		}},
	}
	type answer struct {
		val  uint64
		ok   bool
		scan [][2]uint64
	}
	for i, op := range ops {
		key := uint64(op&0x3F) * spread
		if spread > 1 {
			key += uint64(i) % spread // runs of adjacent keys inside one stripe
		}
		val := uint64(i)<<8 | 1
		var want answer
		for r, g := range rigs {
			var got answer
			f := g.f(i)
			switch op >> 6 {
			case 0:
				got.ok = g.tr.insertAt(f, key, val)
			case 1:
				got.ok, _ = g.tr.InsertIfAbsentAt(f, key, val)
			case 2:
				got.ok, _ = g.tr.DeleteAt(f, key)
			case 3:
				got.val, got.ok, _ = g.tr.GetAt(f, key)
			}
			lo := key - min(key, 2)
			g.tr.Ascend(lo, key+2, func(k, v uint64) bool {
				got.scan = append(got.scan, [2]uint64{k, v})
				return true
			})
			if r == 0 {
				want = got
				continue
			}
			if got.val != want.val || got.ok != want.ok || !slices.Equal(got.scan, want.scan) {
				t.Fatalf("op %d (%#02x key %d), %s: (%d, %v, %v), without a finger (%d, %v, %v)",
					i, op, key, g.name, got.val, got.ok, got.scan, want.val, want.ok, want.scan)
			}
		}
	}
	all := func(tr *Tree) (rows [][2]uint64) {
		tr.Ascend(0, ^uint64(0), func(k, v uint64) bool {
			rows = append(rows, [2]uint64{k, v})
			return true
		})
		return rows
	}
	want := all(plain)
	for _, g := range rigs[1:] {
		if got := all(g.tr); !slices.Equal(got, want) || g.tr.Len() != plain.Len() {
			t.Fatalf("%s: final tree %v (Len %d), without a finger %v (Len %d)",
				g.name, got, g.tr.Len(), want, plain.Len())
		}
	}
}

// insertAt is Insert (overwriting) through a finger, which the exported API
// has no caller for.
func (t *Tree) insertAt(f *Finger, key, val uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	added, _ := t.insertLocked(f, key, val, true)
	return added
}

// TestFingerEquivalence runs the equivalence property on random operation
// strings long and wide enough to split leaves many times over (the fuzz
// target runs it on the corpus's short, dense ones).
func TestFingerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3000)
		rng.Read(ops)
		if seed%2 == 0 {
			// Insert-heavy: the tree grows to a few hundred leaves.
			for i := range ops {
				if ops[i]>>6 == 2 && rng.Intn(4) != 0 {
					ops[i] &^= 0x80
				}
			}
		}
		checkFingerEquivalence(t, ops, 1)
		checkFingerEquivalence(t, ops, 16)
		checkFingerEquivalence(t, ops, 1<<20)
	}
}

// TestFingerHitsAdjacentKeys pins what a hit is: a run of adjacent keys costs
// one descent per leaf, and the finger reports which.
func TestFingerHitsAdjacentKeys(t *testing.T) {
	tr := New()
	var f Finger
	descents := 0
	const n = 4096
	for k := uint64(1); k <= n; k++ {
		added, hit := tr.InsertIfAbsentAt(&f, k*2, k)
		if !added {
			t.Fatalf("insert %d not added", k*2)
		}
		if !hit {
			descents++
		}
	}
	// Ascending appends fill the rightmost leaf and split it in half: one
	// descent per degree/2 keys.
	if want := n/(degree/2) + 1; descents > want {
		t.Fatalf("%d ascending inserts made %d descents, want <= %d", n, descents, want)
	}
	f = Finger{}
	descents = 0
	for k := uint64(1); k <= n; k++ {
		if v, ok, hit := tr.GetAt(&f, k*2); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k*2, v, ok)
		} else if !hit {
			descents++
		}
		// An absent key between two keys of the leaf is answered by the leaf.
		if _, ok, _ := tr.GetAt(&f, k*2+1); ok {
			t.Fatalf("Get(%d) found an absent key", k*2+1)
		}
	}
	if want := n/(degree/2) + 1; descents > want {
		t.Fatalf("%d ascending gets made %d descents, want <= %d", n, descents, want)
	}
	if _, _, hit := tr.GetAt(&f, 2); hit {
		t.Fatal("a key far from the finger's leaf was a hit")
	}
}

// TestFingerStaleLeaf leaves a finger on a leaf, then splits that leaf and
// empties it behind the finger's back: keys that moved to the new sibling and
// keys of the emptied leaf must be answered by a descent, correctly.
func TestFingerStaleLeaf(t *testing.T) {
	tr := New()
	for k := uint64(0); k < degree; k++ {
		tr.Insert(k*10, k)
	}
	var f Finger
	if _, ok, _ := tr.GetAt(&f, 10*(degree-1)); !ok {
		t.Fatal("setup: last key missing")
	}
	leaf := f.leaf
	// Split the finger's leaf (it is the root leaf, and full).
	tr.Insert(5, 99)
	if leaf.next == nil || len(leaf.keys) > degree/2+1 {
		t.Fatalf("setup: leaf did not split (%d keys)", len(leaf.keys))
	}
	moved := uint64(10 * (degree - 1))
	if v, ok, hit := tr.GetAt(&f, moved); !ok || v != degree-1 || hit {
		t.Fatalf("Get of a key that moved to the sibling = %d, %v, hit %v", v, ok, hit)
	}
	// Park the finger on the left leaf again and empty that leaf.
	if _, ok, _ := tr.GetAt(&f, 0); !ok || f.leaf != leaf {
		t.Fatal("setup: finger not back on the left leaf")
	}
	for _, k := range append([]uint64(nil), leaf.keys...) {
		tr.Delete(k)
	}
	if _, ok, hit := tr.GetAt(&f, 10); ok || hit {
		t.Fatalf("Get on an emptied leaf: found %v, hit %v", ok, hit)
	}
	if added, hit := tr.InsertIfAbsentAt(&f, 10, 7); !added || hit {
		t.Fatalf("insert into an emptied leaf: added %v, hit %v", added, hit)
	}
	if v, ok, hit := tr.GetAt(&f, 10); !ok || v != 7 || !hit {
		t.Fatalf("Get after re-insert = %d, %v, hit %v", v, ok, hit)
	}
	// A finger of another tree is a miss, not a wrong answer.
	other := New()
	other.Insert(10, 1)
	if v, ok, hit := other.GetAt(&f, 10); !ok || v != 1 || hit {
		t.Fatalf("finger carried to another tree: %d, %v, hit %v", v, ok, hit)
	}
}

// TestFingersConcurrent runs four goroutines, each with its own finger and
// its own residue class of keys, so that every goroutine's leaves are split
// and thinned by the other three while its finger rests on them. Each checks
// every answer against a private model; run under -race.
func TestFingersConcurrent(t *testing.T) {
	const workers, rounds, span = 4, 6, 2000
	tr := New()
	models := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var f Finger
			model := map[uint64]uint64{}
			models[g] = model
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for r := 0; r < rounds; r++ {
				for i := 0; i < span; i++ {
					key := uint64(i*workers + g)
					switch rng.Intn(4) {
					case 0, 1:
						_, had := model[key]
						added, _ := tr.InsertIfAbsentAt(&f, key, key+uint64(r))
						if added == had {
							t.Errorf("worker %d: InsertIfAbsent(%d) = %v, model has it: %v", g, key, added, had)
							return
						}
						if added {
							model[key] = key + uint64(r)
						}
					case 2:
						_, had := model[key]
						if deleted, _ := tr.DeleteAt(&f, key); deleted != had {
							t.Errorf("worker %d: Delete(%d) = %v, model has it: %v", g, key, deleted, had)
							return
						}
						delete(model, key)
					case 3:
						want, had := model[key]
						if v, ok, _ := tr.GetAt(&f, key); ok != had || v != want {
							t.Errorf("worker %d: Get(%d) = %d, %v, model %d, %v", g, key, v, ok, want, had)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, m := range models {
		total += len(m)
		for k, want := range m {
			if v, ok := tr.Get(k); !ok || v != want {
				t.Fatalf("final Get(%d) = %d, %v, model %d", k, v, ok, want)
			}
		}
	}
	if tr.Len() != total {
		t.Fatalf("final Len %d, models hold %d", tr.Len(), total)
	}
}
