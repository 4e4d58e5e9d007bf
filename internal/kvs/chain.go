package kvs

import (
	"drtm/internal/htm"
	"drtm/internal/memory"
)

// Chain write-side helpers: every committed overwrite of an entry retires
// the current (stamp, incver, value) triple into its ring slot and advances
// the tail before the head word publishes the new version. The three write
// paths — in-HTM local commits, one-sided remote write-backs, and plain
// seqlocked writes (insert prep, redo drains, fallback publish) — share the
// slot/tail math here; layout.go documents the ordering protocol that makes
// a single ascending READ of the image torn-write-detectable.

// RetireTx performs the chain side of an in-HTM overwrite of the entry at
// off: the current triple moves into its ring slot and the tail advances to
// (clamped now, newIncVer). Must run inside the same HTM transaction as the
// value/head writes (the HTM publish locks every affected line, so remote
// readers see the whole update or none of it per line wave). No-op when
// depth <= 0.
func RetireTx(hx *htm.Txn, a *memory.Arena, off memory.Offset, vw, depth int, now, newIncVer uint64) {
	if depth <= 0 {
		return
	}
	tailOff := TailOffset(off, vw, depth)
	oldStamp := hx.Read(a, tailOff+TailStampWord)
	oldHead := hx.Read(a, off+EntryIncVerWord)
	if oldStamp != 0 {
		so := ChainSlotOffset(off, vw, ChainSlotIndex(Version(oldHead), depth))
		hx.Write(a, so+ChainStampWord, oldStamp)
		hx.Write(a, so+ChainIncVerWord, oldHead)
		for i := 0; i < vw; i++ {
			hx.Write(a, so+memory.Offset(ChainValueWord+i),
				hx.Read(a, off+memory.Offset(EntryValueWord+i)))
		}
	}
	hx.Write(a, tailOff+TailStampWord, ClampStamp(now, oldStamp))
	hx.Write(a, tailOff+TailIncVerWord, newIncVer)
}

// RetireLocal is RetireTx for plain seqlocked writes (redo drains, shipped
// store ops): the caller must hold whatever serialization protects the entry
// (the partition's redo lock, the entry's state lock). Writes follow the
// tail-first protocol: tail dirties, then the slot, so a concurrent MVCC READ
// observes either the old quiescent image or a head/tail mismatch. The caller
// writes value and head afterwards. Returns the clamped stamp actually
// published.
//
// The retired slot is assembled in a stack buffer: a row that fits goes out in
// one Write, a wider one a bufferful at a time in ascending order (a Write is
// atomic per cache line only, either way).
func RetireLocal(a *memory.Arena, off memory.Offset, vw, depth int, now, newIncVer uint64) uint64 {
	if depth <= 0 {
		return now
	}
	tailOff := TailOffset(off, vw, depth)
	oldStamp := a.LoadWord(tailOff + TailStampWord)
	oldHead := a.LoadWord(off + EntryIncVerWord)
	stamp := ClampStamp(now, oldStamp)
	tail := [TailWords]uint64{stamp, newIncVer}
	a.Write(tailOff, tail[:])
	if oldStamp != 0 {
		var buf [8 * memory.WordsPerLine]uint64
		buf[ChainStampWord] = oldStamp
		buf[ChainIncVerWord] = oldHead
		dst := ChainSlotOffset(off, vw, ChainSlotIndex(Version(oldHead), depth))
		src := off + EntryValueWord
		for n, left := ChainValueWord, vw; ; n = 0 {
			c := min(left, len(buf)-n)
			a.Read(buf[n:n+c], src)
			a.Write(dst, buf[:n+c])
			if left -= c; left == 0 {
				break
			}
			dst += memory.Offset(n + c)
			src += memory.Offset(c)
		}
	}
	return stamp
}

// ResetChain zeroes the entry's ring and tail with seqlocked writes. Insert
// prep calls it on a dead entry before publication: a recycled entry's ring
// belongs to the PREVIOUS key that lived at this offset, and must never be
// resolvable under the new one.
func ResetChain(a *memory.Arena, off memory.Offset, vw, depth int) {
	if depth <= 0 {
		return
	}
	ring := off + memory.Offset(EntryValueWord+vw)
	for n := ChainWords(vw, depth); n > 0; {
		z := zeroWords[:min(n, len(zeroWords))]
		a.Write(ring, z)
		ring += memory.Offset(len(z))
		n -= len(z)
	}
}

// zeroWords is the read-only source ResetChain zeroes rings from, a few cache
// lines at a time.
var zeroWords [8 * memory.WordsPerLine]uint64
