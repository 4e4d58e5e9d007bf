package kvs

import (
	"testing"

	"drtm/internal/htm"
	"drtm/internal/memory"
)

// TestSlotOrder: a table's entries, its indirect buckets and an ordered shard's
// entries are handed out lowest offset first, a freed slot before a fresh one
// and the most recently freed first, and not one past the configured limit.
func TestSlotOrder(t *testing.T) {
	const limit = 5
	tb := New(Config{MainBuckets: 8, IndirectBuckets: limit, Capacity: limit, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	o := newOrdered(t, limit)
	for _, tc := range []struct {
		name  string
		base  memory.Offset
		width int
		alloc func() (memory.Offset, bool)
		free  func(memory.Offset)
	}{
		{"table entries", tb.entryBase, tb.EntryWords(), tb.allocEntry, tb.freeEntry},
		{"indirect buckets", tb.indirBase, BucketWords, tb.allocBucket, tb.freeBucket},
		{"ordered entries", segBase, o.EntryWords(), o.allocSlot, o.freeSlot},
	} {
		for i := 0; i < limit; i++ {
			off, ok := tc.alloc()
			if want := tc.base + memory.Offset(i*tc.width); !ok || off != want {
				t.Fatalf("%s: fresh slot %d at %d, %v; want %d", tc.name, i, off, ok, want)
			}
		}
		if off, ok := tc.alloc(); ok {
			t.Fatalf("%s: slot %d handed out past the limit of %d", tc.name, off, limit)
		}
		a, b := tc.base+memory.Offset(3*tc.width), tc.base+memory.Offset(tc.width)
		tc.free(a)
		tc.free(b)
		for _, want := range []memory.Offset{b, a} {
			if off, ok := tc.alloc(); !ok || off != want {
				t.Fatalf("%s: recycled %d, %v; want %d, the most recently freed", tc.name, off, ok, want)
			}
		}
		if _, ok := tc.alloc(); ok {
			t.Fatalf("%s: a slot past the limit after recycling", tc.name)
		}
	}
}

// TestSlotLimits: inserts fail with ErrFull at exactly Capacity entries, and a
// single bucket chain with ErrNoSlot at exactly IndirectBuckets overflow
// buckets — the main bucket and all but the last indirect one give a slot to
// the link, so the chain holds 7·IndirectBuckets + 8 keys.
func TestSlotLimits(t *testing.T) {
	tb := New(Config{MainBuckets: 64, Capacity: 6, ValueWords: 2}, htm.NewEngine(htm.Config{}))
	o := newOrdered(t, 6)
	for k := uint64(1); k <= 6; k++ {
		if err := tb.Insert(k, val(k, k)); err != nil {
			t.Fatalf("table insert %d: %v", k, err)
		}
		if err := o.Insert(k, val(k, k)); err != nil {
			t.Fatalf("ordered insert %d: %v", k, err)
		}
		if off, _ := tb.LookupLocal(k); off != tb.entryBase+memory.Offset(int(k-1)*tb.EntryWords()) {
			t.Fatalf("table key %d at %d: not the lowest fresh slot", k, off)
		}
		if off, _ := o.Lookup(k); off != segBase+memory.Offset(int(k-1)*o.EntryWords()) {
			t.Fatalf("ordered key %d at %d: not the lowest fresh slot", k, off)
		}
	}
	if err := tb.Insert(7, val(7, 7)); err != ErrFull {
		t.Fatalf("table insert past Capacity: %v, want ErrFull", err)
	}
	if err := o.Insert(7, val(7, 7)); err != ErrFull {
		t.Fatalf("ordered insert past Capacity: %v, want ErrFull", err)
	}
	if _, err := o.EnsureDead(7); err != ErrFull {
		t.Fatalf("EnsureDead past Capacity: %v, want ErrFull", err)
	}

	const indirect = 3
	chain := New(Config{MainBuckets: 1, IndirectBuckets: indirect, Capacity: 64, ValueWords: 2},
		htm.NewEngine(htm.Config{}))
	k := uint64(1)
	for ; ; k++ {
		if err := chain.Insert(k, val(k, k)); err != nil {
			if err != ErrNoSlot {
				t.Fatalf("insert %d: %v, want ErrNoSlot", k, err)
			}
			break
		}
	}
	if got, want := int(k-1), 7*indirect+8; got != want || chain.buckets.used != indirect {
		t.Fatalf("chain took %d keys in %d indirect buckets; want %d in %d", got, chain.buckets.used, want, indirect)
	}
}
