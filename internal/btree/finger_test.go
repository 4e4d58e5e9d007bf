package btree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkFingerEquivalence replays ops on three trees — one driven without a
// finger, one through a finger used by every operation, one through a finger
// used by every seventh operation only, so that it is stale (its leaves split,
// emptied or refilled by the operations in between) nearly every time it is
// used — and requires identical answers, and intact fences (CheckFences) on
// the trees the fingers work on, at every step, and identical contents at the
// end. Each op byte picks the
// operation with its top two bits and the key with the rest, scaled by spread
// so that long inputs split leaves.
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
			g.tr.AscendAt(f, lo, key+2, func(k, v uint64) bool {
				got.scan = append(got.scan, [2]uint64{k, v})
				return true
			})
			if r == 0 {
				want = got
				continue
			}
			if err := g.tr.CheckFences(); err != nil {
				t.Fatalf("op %d (%#02x key %d), %s: %v", i, op, key, g.name, err)
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
// one descent per leaf, and the finger reports which and why.
func TestFingerHitsAdjacentKeys(t *testing.T) {
	tr := New()
	var f Finger
	descents := 0
	const n = 4096
	for k := uint64(1); k <= n; k++ {
		added, via := tr.InsertIfAbsentAt(&f, k*2, k)
		if !added {
			t.Fatalf("insert %d not added", k*2)
		}
		switch via {
		case FullLeaf:
			descents++
		case Descent:
			// The last leaf covers every key above it, so once the first insert
			// has found it, a full leaf is the only reason left to descend.
			if k > 1 {
				t.Fatalf("insert %d descended though the last leaf is remembered", k*2)
			}
		}
	}
	// Ascending appends fill the last leaf and split it in half: one descent
	// per degree/2 keys.
	if want := n/(degree/2) + 1; descents > want {
		t.Fatalf("%d ascending inserts made %d descents, want <= %d", n, descents, want)
	}
	f = Finger{}
	descents = 0
	for k := uint64(1); k <= n; k++ {
		if v, ok, via := tr.GetAt(&f, k*2); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k*2, v, ok)
		} else if via != Hit {
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
	if _, _, via := tr.GetAt(&f, 2); via != Descent {
		t.Fatalf("a key %d leaves behind the %d remembered: %v, want a descent", n/(degree/2), FingerLeaves, via)
	}
	// A scan starts from the cache like a point operation does.
	all := func(k, v uint64) bool { return true }
	if via := tr.AscendAt(&f, 2*n-5, 2*n, all); via != Hit {
		t.Fatalf("scan from a remembered leaf: %v, want a hit", via)
	}
	if via := tr.DescendAt(&f, n, n+5, all); via != Descent {
		t.Fatalf("scan from a leaf long forgotten: %v, want a descent", via)
	}
}

// TestFingerStaleLeaf remembers a leaf, then splits that leaf and empties it
// behind the finger's back: keys that moved to the new sibling are answered by
// a descent, and the emptied leaf still covers its whole range — lookups and
// inserts there hit.
func TestFingerStaleLeaf(t *testing.T) {
	tr := New()
	for k := uint64(0); k < degree; k++ {
		tr.Insert(k*10, k)
	}
	var f Finger
	if _, ok, _ := tr.GetAt(&f, 10*(degree-1)); !ok {
		t.Fatal("setup: last key missing")
	}
	leaf := f.leaves[0]
	// Split the remembered leaf (it is the root leaf, and full).
	tr.Insert(5, 99)
	if leaf.next == nil || len(leaf.keys) > degree/2+1 {
		t.Fatalf("setup: leaf did not split (%d keys)", len(leaf.keys))
	}
	moved := uint64(10 * (degree - 1))
	if v, ok, via := tr.GetAt(&f, moved); !ok || v != degree-1 || via != Descent {
		t.Fatalf("Get of a key that moved to the sibling = %d, %v, %v", v, ok, via)
	}
	// Both halves are remembered now; empty the left one.
	if _, ok, via := tr.GetAt(&f, 0); !ok || via != Hit || f.leaves[0] != leaf {
		t.Fatalf("Get in the half the leaf kept: found %v, %v", ok, via)
	}
	for _, k := range append([]uint64(nil), leaf.keys...) {
		tr.Delete(k)
	}
	if _, ok, via := tr.GetAt(&f, 10); ok || via != Hit {
		t.Fatalf("Get on an emptied leaf: found %v, %v", ok, via)
	}
	if added, via := tr.InsertIfAbsentAt(&f, 10, 7); !added || via != Hit {
		t.Fatalf("insert into an emptied leaf: added %v, %v", added, via)
	}
	if v, ok, via := tr.GetAt(&f, 10); !ok || v != 7 || via != Hit {
		t.Fatalf("Get after re-insert = %d, %v, %v", v, ok, via)
	}
	// The key just below the sibling's fence routes to the left leaf, which
	// has nothing near it; the fence itself is the sibling's first key.
	fence := leaf.next.low
	if _, ok, via := tr.GetAt(&f, fence-1); ok || via != Hit || f.leaves[0] != leaf {
		t.Fatalf("Get below the fence: found %v, %v, on the left leaf: %v", ok, via, f.leaves[0] == leaf)
	}
	if _, ok, via := tr.GetAt(&f, fence); !ok || via != Hit || f.leaves[0] != leaf.next {
		t.Fatalf("Get at the fence: found %v, %v, on the sibling: %v", ok, via, f.leaves[0] == leaf.next)
	}
	// A finger of another tree is a miss, not a wrong answer.
	other := New()
	other.Insert(10, 1)
	if v, ok, via := other.GetAt(&f, 10); !ok || v != 1 || via != Descent {
		t.Fatalf("finger carried to another tree: %d, %v, %v", v, ok, via)
	}
}

// TestFingerFullLeaf pins the other reason to descend: an insert whose
// covering leaf is remembered but full walks down like a miss, says so, and
// leaves the half that took the key the most recent one.
func TestFingerFullLeaf(t *testing.T) {
	tr := New()
	var f Finger
	for k := uint64(0); k < degree; k++ {
		if _, via := tr.InsertIfAbsentAt(&f, k*10, k); (via != Hit) != (k == 0) {
			t.Fatalf("insert %d: %v", k*10, via)
		}
	}
	if _, ok, via := tr.GetAt(&f, 15); ok || via != Hit {
		t.Fatalf("Get in a full leaf: found %v, %v", ok, via)
	}
	if added, via := tr.InsertIfAbsentAt(&f, 15, 1); !added || via != FullLeaf {
		t.Fatalf("insert into a full leaf: added %v, %v", added, via)
	}
	if f.n != 1 || f.leaves[0].next == nil {
		t.Fatalf("after the split the finger remembers %d leaves, the left half first: %v", f.n, f.leaves[0].next != nil)
	}
	if added, via := tr.InsertIfAbsentAt(&f, 10*(degree-1)+1, 1); !added || via != Descent || f.n != 2 {
		t.Fatalf("insert into the new sibling: added %v, %v, %d leaves remembered", added, via, f.n)
	}
	if err := tr.CheckFences(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerEvictsLeastRecent: FingerLeaves runs of adjacent keys taking turns
// all hit, in whatever order; one run more and the least recently used leaf
// goes, so that FingerLeaves+1 runs taking turns in a cycle never hit.
func TestFingerEvictsLeastRecent(t *testing.T) {
	const stride = 1 << 20
	tr := New()
	// Ascending appends split a full leaf in half, so runs of degree/2 keys end
	// up a leaf each, but for the last two.
	for r := uint64(0); r <= FingerLeaves+1; r++ {
		for k := uint64(0); k < degree/2; k++ {
			tr.Insert(r*stride+k, k)
		}
	}
	var f Finger
	touch := func(r uint64, want Path) {
		t.Helper()
		if _, ok, via := tr.GetAt(&f, r*stride+1); !ok || via != want {
			t.Fatalf("run %d: found %v, %v, want %v", r, ok, via, want)
		}
	}
	for r := uint64(0); r < FingerLeaves; r++ {
		touch(r, Descent)
	}
	for _, r := range rand.New(rand.NewSource(1)).Perm(FingerLeaves) {
		touch(uint64(r), Hit)
	}
	for r := uint64(0); r < FingerLeaves; r++ {
		touch(r, Hit) // leaves run 0 the least recent, run 31 the most
	}
	touch(FingerLeaves, Descent) // evicts run 0
	touch(1, Hit)                // run 2 is the least recent now
	touch(0, Descent)            // evicts run 2
	touch(2, Descent)            // evicts run 3
	touch(1, Hit)
	touch(FingerLeaves, Hit)
	touch(3, Descent)
	// In a cycle one longer than the finger, the next run is always the one
	// that was evicted last.
	f = Finger{}
	for lap := 0; lap < 3; lap++ {
		for r := uint64(0); r <= FingerLeaves; r++ {
			touch(r, Descent)
		}
	}
}

// TestFingersConcurrent runs four goroutines, each with its own finger and
// its own residue class of keys, so that every goroutine's leaves are split
// and thinned by the other three while its finger remembers them. Each checks
// every answer against a private model and the fences between rounds; run
// under -race.
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
				if err := tr.CheckFences(); err != nil {
					t.Errorf("worker %d, round %d: %v", g, r, err)
					return
				}
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
	if err := tr.CheckFences(); err != nil {
		t.Fatal(err)
	}
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
