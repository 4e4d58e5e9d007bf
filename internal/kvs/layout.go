// Package kvs implements DrTM-KV, the HTM/RDMA-friendly cluster-chaining
// hash table of Section 5, plus its location-based host-transparent cache.
//
// Memory layout (Figure 9), all inside one word arena per table so that
// every structure is reachable by one-sided RDMA:
//
//	[ main header buckets | indirect header bucket pool | entry pool ]
//
// A bucket holds 8 header slots of 16 bytes (2 words):
//
//	word 0: type(2) | lossy incarnation(14) | offset(48)
//	word 1: key(64)
//
// An entry (line-aligned) is:
//
//	word 0: key
//	word 1: incarnation(32) | version(32)
//	word 2: state          (the Figure 4 lock/lease word)
//	word 3…: value         (fixed number of words per table)
//
// Local operations (READ/WRITE/INSERT/DELETE) run inside HTM transactions,
// which is what lets the design drop Pilaf's checksums and FaRM's
// per-cacheline versions: any racing access simply aborts the HTM region.
// Remote GET walks buckets with one-sided READs; remote PUT writes the
// entry with one-sided WRITEs under the entry's state lock; INSERT/DELETE
// are shipped to the host with SEND/RECV verbs and executed there inside an
// HTM region (footnote 5 of the paper).
package kvs

import "drtm/internal/memory"

// Slot type codes.
const (
	TypeFree   uint64 = 0 // slot unused
	TypeEntry  uint64 = 1 // offset points at a key-value entry
	TypeHeader uint64 = 2 // offset points at an indirect header bucket
	TypeCached uint64 = 3 // (cache only) offset is a local cache index
)

// Bucket geometry.
const (
	SlotsPerBucket = 8
	SlotWords      = 2
	BucketWords    = SlotsPerBucket * SlotWords // 16 words = 128 B
)

// Entry word indices relative to the entry offset.
//
// The incarnation|version word doubles as the speculative read arm's
// validation anchor: every committed write — HTM-local (Table.WriteTx /
// tx.Local.Write), remote write-back, and the software fallback's publish —
// bumps the 32-bit version while holding the entry's write protection, so a
// reader that observes an unchanged version word with an unlocked state word
// has observed a stable `version ‖ state ‖ value` image. Keeping it adjacent
// to the state word lets one 2-word READ fetch both.
const (
	EntryKeyWord    = 0
	EntryIncVerWord = 1
	EntryStateWord  = 2
	EntryValueWord  = 3

	// EntryHeaderWords spans the incarnation|version and state words — the
	// window re-READ by speculative commit-time validation.
	EntryHeaderWords = 2
)

// slot word 0 packing: type in bits 63..62, lossy incarnation in bits
// 61..48, offset in bits 47..0.
const (
	slotTypeShift  = 62
	slotLossyShift = 48
	slotLossyMask  = (uint64(1) << 14) - 1
	slotOffsetMask = (uint64(1) << 48) - 1
	// LossyBits is how many incarnation bits a header slot can carry.
	LossyBits = 14
)

// PackSlot builds a header-slot word 0.
func PackSlot(typ uint64, lossyInc uint64, off memory.Offset) uint64 {
	return typ<<slotTypeShift | (lossyInc&slotLossyMask)<<slotLossyShift |
		uint64(off)&slotOffsetMask
}

// SlotType extracts the slot type.
func SlotType(w0 uint64) uint64 { return w0 >> slotTypeShift }

// SlotLossyInc extracts the 14-bit lossy incarnation.
func SlotLossyInc(w0 uint64) uint64 { return (w0 >> slotLossyShift) & slotLossyMask }

// SlotOffset extracts the 48-bit word offset.
func SlotOffset(w0 uint64) memory.Offset {
	return memory.Offset(w0 & slotOffsetMask)
}

// PackIncVer combines the 32-bit incarnation and version fields.
func PackIncVer(inc, ver uint32) uint64 { return uint64(inc)<<32 | uint64(ver) }

// Incarnation extracts the 32-bit full incarnation. Odd means live:
// INSERT and DELETE each increment it, starting from zero.
func Incarnation(w uint64) uint32 { return uint32(w >> 32) }

// Version extracts the 32-bit write version (bumped by every WRITE; used to
// order updates during recovery).
func Version(w uint64) uint32 { return uint32(w) }

// Live reports whether an incarnation value denotes a live entry.
func Live(inc uint32) bool { return inc%2 == 1 }

// mix64 is a splitmix64 finalizer used as the bucket hash.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Version chains (the MVCC snapshot-read arm).
//
// When a table is built with ChainDepth > 0, every entry's footprint grows a
// fixed-depth ring of retired versions plus a two-word tail, all inside the
// entry's contiguous line-aligned span so ONE one-sided READ fetches the
// whole image:
//
//	word 0:            key
//	word 1:            incarnation|version        (the "head")
//	word 2:            state
//	word 3…3+vw-1:     current value
//	then depth slots:  [stamp, incarnation|version, value…]   (ring)
//	then the tail:     [stamp, incarnation|version]
//
// The tail's stamp is the soft-clock time at which the CURRENT version
// committed; a slot's stamp is the time its (now retired) version committed.
// Per entry, stamps strictly increase (writers clamp), so "the version
// current at snapshot time S" is simply the stamped version with the largest
// stamp ≤ S — the current one if tailStamp ≤ S, else a ring slot, else the
// chain is truncated below S and the reader must fall back to the RO
// confirm-wave scheme.
//
// The duplicated incarnation|version in the tail is the torn-read detector.
// Arena reads (like real RDMA READs) are only per-cacheline consistent, and
// an entry+chain image spans several lines read in ascending order. Every
// writer therefore publishes in this order: tail first (the dirty marker),
// then ring slot and value, then the head word last. A reader that observes
// head == tailIncVer has observed a quiescent image: had any writer been
// active between the head read (first line) and the tail read (last line),
// the tail would already carry the next version while the head still showed
// the old one — or the head the new one while a later writer re-dirtied the
// tail. HTM-committed writes lock every affected line for the whole publish,
// which degenerates to the same check. On mismatch the MVCC reader falls
// back; it never retries in place (that would be a second wave).
const (
	// ChainStampWord and ChainIncVerWord index within one ring slot.
	ChainStampWord  = 0
	ChainIncVerWord = 1
	ChainValueWord  = 2

	// TailStampWord and TailIncVerWord index within the tail pair.
	TailStampWord  = 0
	TailIncVerWord = 1
	TailWords      = 2
)

// ChainSlotWords is the footprint of one ring slot for a vw-word value.
func ChainSlotWords(vw int) int { return ChainValueWord + vw }

// ChainWords is the total chain footprint (ring + tail) appended to an
// entry; zero when chains are disabled.
func ChainWords(vw, depth int) int {
	if depth <= 0 {
		return 0
	}
	return depth*ChainSlotWords(vw) + TailWords
}

// EntryImageWords is the word count of a full entry+chain image — the span
// an MVCC reader fetches in one READ.
func EntryImageWords(vw, depth int) int {
	return EntryValueWord + vw + ChainWords(vw, depth)
}

// ChainSlotOffset returns the arena offset of ring slot i of the entry at
// off.
func ChainSlotOffset(off memory.Offset, vw, i int) memory.Offset {
	return off + memory.Offset(EntryValueWord+vw+i*ChainSlotWords(vw))
}

// TailOffset returns the arena offset of the entry's tail pair.
func TailOffset(off memory.Offset, vw, depth int) memory.Offset {
	return off + memory.Offset(EntryValueWord+vw+depth*ChainSlotWords(vw))
}

// ChainSlotIndex picks the ring slot that version v retires into.
func ChainSlotIndex(v uint32, depth int) int { return int(v) % depth }

// ResolveStatus classifies one ResolveAtStamp outcome.
type ResolveStatus uint8

const (
	// ResolveCurrent: the entry's current version committed at or before the
	// stamp; Value/IncVer describe it.
	ResolveCurrent ResolveStatus = iota
	// ResolveRetired: a ring slot holds the version current at the stamp.
	ResolveRetired
	// ResolveDead: the version current at the stamp was a dead incarnation —
	// the key did not exist at the stamp.
	ResolveDead
	// ResolveTruncated: every retained version committed after the stamp
	// (or the entry predates chain stamping); the reader must fall back.
	ResolveTruncated
	// ResolveInconsistent: the image failed the head/tail (or key) check —
	// a writer raced the READ; the reader must fall back.
	ResolveInconsistent
)

// Resolved is the outcome of resolving one entry image at a stamp.
type Resolved struct {
	Status ResolveStatus
	IncVer uint64   // incarnation|version of the resolved version
	Value  []uint64 // aliases the image; empty for Dead/Truncated/Inconsistent
}

// ResolveAtStamp resolves an entry+chain image (EntryImageWords long) to the
// version current at snapshot stamp s. key guards against stale locations
// and entry reuse; pass the key the image was looked up under.
func ResolveAtStamp(img []uint64, vw, depth int, key, s uint64) Resolved {
	tail := EntryValueWord + vw + depth*ChainSlotWords(vw)
	head := img[EntryIncVerWord]
	if img[EntryKeyWord] != key || head != img[tail+TailIncVerWord] {
		return Resolved{Status: ResolveInconsistent}
	}
	ts := img[tail+TailStampWord]
	if ts == 0 {
		return Resolved{Status: ResolveTruncated}
	}
	if ts <= s {
		if !Live(Incarnation(head)) {
			return Resolved{Status: ResolveDead, IncVer: head}
		}
		return Resolved{Status: ResolveCurrent, IncVer: head,
			Value: img[EntryValueWord : EntryValueWord+vw]}
	}
	// The current version is too new: the version current at s is the
	// stamped slot with the largest stamp ≤ s.
	sw := ChainSlotWords(vw)
	best := -1
	var bestStamp uint64
	for i := 0; i < depth; i++ {
		so := EntryValueWord + vw + i*sw
		st := img[so+ChainStampWord]
		if st != 0 && st <= s && st >= bestStamp {
			best, bestStamp = so, st
		}
	}
	if best < 0 {
		return Resolved{Status: ResolveTruncated}
	}
	iv := img[best+ChainIncVerWord]
	if !Live(Incarnation(iv)) {
		return Resolved{Status: ResolveDead, IncVer: iv}
	}
	return Resolved{Status: ResolveRetired, IncVer: iv,
		Value: img[best+ChainValueWord : best+ChainValueWord+vw]}
}

// ClampStamp returns the stamp a writer must publish in the tail so that
// per-entry stamps strictly increase: the writer's commit soft-time, pushed
// past the previous tail stamp when clock skew (stamps come from the
// committing node's clock, which differs across coordinators) would order
// them backwards.
func ClampStamp(t, prevTail uint64) uint64 {
	if t <= prevTail {
		return prevTail + 1
	}
	return t
}
