//go:build !race

package btree

import "testing"

// TestNodeAllocations pins what the tree allocates: a node is one object, so
// an insert into a leaf with room allocates nothing, a leaf split exactly the
// new right leaf, and deletes and scans through a finger nothing at all (a
// descending scan collects into the finger's scratch). Excluded under -race:
// the detector adds shadow allocations.
func TestNodeAllocations(t *testing.T) {
	tr := New()
	// Ascending appends: the root leaf splits into keys 1 .. degree/2 and a last
	// leaf that ends up holding degree/2+1 .. 3*degree/2, full.
	next := uint64(1)
	for ; next <= 3*degree/2; next++ {
		tr.Insert(next, next)
	}
	var f Finger
	const k = degree / 2 // the first leaf's last key; it has room
	tr.Delete(k)
	if n := testing.AllocsPerRun(100, func() {
		if added, _ := tr.InsertIfAbsentAt(&f, k, k); !added {
			t.Fatal("insert into a leaf with room: not added")
		}
		if deleted, _ := tr.DeleteAt(&f, k); !deleted {
			t.Fatal("delete through a finger: not deleted")
		}
	}); n != 0 {
		t.Errorf("insert into a leaf with room + DeleteAt allocate %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Insert(k, k) }); n != 0 {
		t.Errorf("insert into a leaf with room allocates %.1f objects, want 0", n)
	}

	// Each run appends degree/2 keys to the full last leaf: the first splits it,
	// the rest fill the new right half, which ends full again. The root has
	// room for every separator the runs add.
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < degree/2; i++ {
			tr.Insert(next, next)
			next++
		}
	}); n != 1 {
		t.Errorf("a leaf split allocates %.2f objects, want exactly 1", n)
	}
	if err := tr.CheckFences(); err != nil {
		t.Fatal(err)
	}

	all := func(k, v uint64) bool { return true }
	if n := testing.AllocsPerRun(100, func() { tr.AscendAt(&f, 1, next, all) }); n != 0 {
		t.Errorf("AscendAt through a finger allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.DescendAt(&f, 1, next, all) }); n != 0 {
		t.Errorf("DescendAt through a finger allocates %.1f objects, want 0", n)
	}
}
