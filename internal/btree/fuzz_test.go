package btree

import (
	"sort"
	"testing"
)

// FuzzIteratorBoundaries drives interleaved inserts and deletes over a
// small key domain and, after every mutation, cross-checks Ascend/Descend
// against a model map on ranges that hug the mutation point — exact-key
// bounds, empty ranges, single-key ranges and full sweeps. This pins the
// iterator behaviors scans lean on: inclusive [lo, hi], sorted order, no
// ghost keys after delete-then-reinsert at a range edge. The same input then
// drives the finger equivalence property (finger_test.go).
func FuzzIteratorBoundaries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x81, 0x02, 0x82, 0x03, 0x03, 0x83})
	f.Add([]byte{0x10, 0x90, 0x10, 0x90, 0x10})             // same-key churn
	f.Add([]byte{0x00, 0x3F, 0x80, 0xBF, 0x00, 0x3F, 0x80}) // domain edges
	// For the finger property, whose top two bits pick insert, insert-if-absent,
	// delete, get: fill the leaf the finger remembers to the brim and read it;
	// one key more splits it (full leaf), then both halves are read and the
	// right one appended to; last, the left half is emptied and used again.
	fill := make([]byte, 0, 3*degree)
	for k := byte(0); k < degree; k++ {
		fill = append(fill, 0x40|k)
	}
	fill = append(fill, 0xC0|3, 0x40|3)
	f.Add(fill)
	split := append(fill, 0x40|degree, 0xC0|1, 0xC0|degree, 0x40|(degree+1))
	f.Add(split)
	empty := split
	for k := byte(0); k < degree/2; k++ {
		empty = append(empty, 0x80|k)
	}
	f.Add(append(empty, 0xC0|5, 0x40|5, 0xC0|5, 0xC0|(degree/2)))

	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New()
		model := map[uint64]uint64{}
		for i, op := range ops {
			// Bit 7 selects delete; bits 0..5 the key (domain 0..63, dense
			// enough that boundaries collide constantly).
			key := uint64(op & 0x3F)
			if op&0x80 != 0 {
				if got, want := tr.Delete(key), model[key] != 0; got != want {
					t.Fatalf("op %d: Delete(%d)=%v, model %v", i, key, got, want)
				}
				delete(model, key)
			} else {
				val := uint64(i)<<8 | key | 1 // nonzero sentinel
				tr.Insert(key, val)
				model[key] = val
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", i, tr.Len(), len(model))
			}
			for _, r := range [][2]uint64{
				{key, key},                  // single-key range at the mutation
				{key, key + 1},              // right edge exclusive key+2
				{saturSub(key, 1), key},     // left edge
				{key + 1, saturSub(key, 1)}, // usually empty (lo > hi)
				{0, 63},                     // full sweep
			} {
				checkRange(t, tr, model, r[0], r[1])
			}
		}
		checkFingerEquivalence(t, ops, 1)
	})
}

func saturSub(k, d uint64) uint64 {
	if k < d {
		return 0
	}
	return k - d
}

func checkRange(t *testing.T, tr *Tree, model map[uint64]uint64, lo, hi uint64) {
	t.Helper()
	var want [][2]uint64
	for k, v := range model {
		if k >= lo && k <= hi {
			want = append(want, [2]uint64{k, v})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })

	var got [][2]uint64
	tr.Ascend(lo, hi, func(k, v uint64) bool {
		got = append(got, [2]uint64{k, v})
		return true
	})
	matchRows(t, "Ascend", lo, hi, want, got)

	got = got[:0]
	tr.Descend(lo, hi, func(k, v uint64) bool {
		got = append(got, [2]uint64{k, v})
		return true
	})
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	matchRows(t, "Descend", lo, hi, want, got)

	// Early termination must deliver exactly the first row.
	if len(want) > 0 {
		n := 0
		tr.Ascend(lo, hi, func(k, v uint64) bool {
			if k != want[0][0] || v != want[0][1] {
				t.Fatalf("Ascend[%d,%d] first row (%d,%#x), want (%d,%#x)", lo, hi, k, v, want[0][0], want[0][1])
			}
			n++
			return false
		})
		if n != 1 {
			t.Fatalf("Ascend[%d,%d] stopped callback ran %d times", lo, hi, n)
		}
	}
}

func matchRows(t *testing.T, dir string, lo, hi uint64, want, got [][2]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s[%d,%d]: %d rows, want %d (%v vs %v)", dir, lo, hi, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d,%d] row %d: %v, want %v", dir, lo, hi, i, got[i], want[i])
		}
	}
}
