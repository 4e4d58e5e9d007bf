// Package memory provides the flat, word-addressed memory substrate shared
// by the software HTM engine and the simulated RDMA fabric.
//
// Every logical node in the cluster owns one or more Arenas. An Arena is a
// slice of 64-bit words grouped into 64-byte cache lines (8 words). Each line
// carries a seqlock-style version word:
//
//   - even value  -> line is stable; the value is its version
//   - odd  value  -> a writer is publishing the line
//
// All mutators (HTM commit publication, RDMA WRITE, RDMA CAS/FAA) lock the
// line (version -> odd), mutate, and release (version -> old even + 2). All
// readers either read a single word atomically or use the seqlock protocol
// for multi-word consistency. Because both the HTM engine and the RDMA
// fabric funnel through the same version words, a one-sided RDMA operation
// conflicts with — and ultimately aborts — any in-flight HTM transaction
// that touched the same line, which is exactly the strong-atomicity /
// cache-coherence interplay the DrTM protocol relies on.
package memory

import (
	"fmt"
	"sync/atomic"
)

// WordsPerLine is the number of 64-bit words per tracked cache line (64 B).
const WordsPerLine = 8

// lineShift converts a word offset to a line index.
const lineShift = 3

// Offset addresses a word within an Arena. Offsets are in words, not bytes.
type Offset uint64

// Line identifies a cache line within an Arena.
type Line uint32

// LineOf returns the cache line containing the word offset.
func LineOf(off Offset) Line { return Line(off >> lineShift) }

// Arena is a flat region of word-addressed memory with per-line versioning.
// The zero value is not usable; create Arenas with NewArena.
type Arena struct {
	// ID distinguishes arenas of a node (e.g. KV region vs. log region).
	// It is set by the owner and never interpreted by this package.
	ID int

	// seq is process-unique (IDs repeat across nodes): the HTM engine hashes
	// and orders cache lines of different arenas by it.
	seq uint32

	words []atomic.Uint64
	vers  []atomic.Uint64 // one per line; seqlock version
}

// arenaSeq numbers arenas in creation order.
var arenaSeq atomic.Uint32

// NewArena allocates an arena of n words (rounded up to a whole line).
func NewArena(id int, n int) *Arena {
	if n <= 0 {
		panic("memory: arena size must be positive")
	}
	lines := (n + WordsPerLine - 1) / WordsPerLine
	return &Arena{
		ID:    id,
		seq:   arenaSeq.Add(1),
		words: make([]atomic.Uint64, lines*WordsPerLine),
		vers:  make([]atomic.Uint64, lines),
	}
}

// Seq returns the arena's process-unique creation sequence number.
func (a *Arena) Seq() uint32 { return a.seq }

// Len returns the arena size in words.
func (a *Arena) Len() int { return len(a.words) }

// Lines returns the number of cache lines.
func (a *Arena) Lines() int { return len(a.vers) }

func (a *Arena) boundsCheck(off Offset, n int) {
	if int(off)+n > len(a.words) {
		panic(fmt.Sprintf("memory: access [%d,%d) out of arena %d bounds %d",
			off, int(off)+n, a.ID, len(a.words)))
	}
}

// LineVersion returns the current version word of a line. Odd means a writer
// is in flight. Used by the HTM engine for read-set validation.
func (a *Arena) LineVersion(l Line) uint64 { return a.vers[l].Load() }

// LoadWord atomically reads a single word without version tracking. Single
// words can never tear, so this is safe for non-transactional peeking (e.g.
// checking a lock word before a CAS retry loop).
func (a *Arena) LoadWord(off Offset) uint64 {
	a.boundsCheck(off, 1)
	return a.words[off].Load()
}

// storeWord writes a word without touching versions. Callers must hold the
// line lock (or be initializing memory that is not yet shared).
func (a *Arena) storeWord(off Offset, v uint64) {
	a.words[off].Store(v)
}

// UnsafeInit writes words without any synchronization or version bumps.
// It is intended for single-threaded population before the arena is shared.
func (a *Arena) UnsafeInit(off Offset, src []uint64) {
	a.boundsCheck(off, len(src))
	for i, v := range src {
		a.words[int(off)+i].Store(v)
	}
}

// lockLine spins until it acquires the line's seqlock, returning the even
// version it replaced. The spin is bounded only by writer progress; all
// writers hold lines for O(line size) time.
func (a *Arena) lockLine(l Line) uint64 {
	for {
		v := a.vers[l].Load()
		if v&1 == 0 && a.vers[l].CompareAndSwap(v, v+1) {
			return v
		}
		spinYield()
	}
}

// tryLockLine attempts a single acquisition of the line's seqlock.
// It returns the previous even version and true on success.
func (a *Arena) tryLockLine(l Line) (uint64, bool) {
	v := a.vers[l].Load()
	if v&1 != 0 {
		return 0, false
	}
	if a.vers[l].CompareAndSwap(v, v+1) {
		return v, true
	}
	return 0, false
}

// unlockLine releases a locked line, advancing its version if dirty says the
// contents changed, or restoring the original version otherwise.
func (a *Arena) unlockLine(l Line, prev uint64, dirty bool) {
	if dirty {
		a.vers[l].Store(prev + 2)
	} else {
		a.vers[l].Store(prev)
	}
}

// Read copies n=len(dst) words starting at off into dst with per-line
// seqlock consistency: each line is internally consistent, but a multi-line
// read is not atomic across lines — matching the semantics of a real
// one-sided RDMA READ, which is only guaranteed atomic per cache line.
func (a *Arena) Read(dst []uint64, off Offset) {
	a.boundsCheck(off, len(dst))
	i := 0
	for i < len(dst) {
		cur := off + Offset(i)
		l := LineOf(cur)
		// Words of this line covered by the request.
		end := (int(l) + 1) * WordsPerLine
		n := end - int(cur)
		if rem := len(dst) - i; n > rem {
			n = rem
		}
		a.readLine(l, cur, dst[i:i+n])
		i += n
	}
}

// readLine reads words of a single line under the seqlock retry protocol.
func (a *Arena) readLine(l Line, off Offset, dst []uint64) {
	for {
		v1 := a.vers[l].Load()
		if v1&1 != 0 {
			spinYield()
			continue
		}
		for i := range dst {
			dst[i] = a.words[int(off)+i].Load()
		}
		if a.vers[l].Load() == v1 {
			return
		}
		spinYield()
	}
}

// Write copies src into the arena at off non-transactionally, locking each
// affected line for the duration of its update. This is the path used by
// RDMA WRITE; the version bumps are what doom concurrent HTM readers.
func (a *Arena) Write(off Offset, src []uint64) {
	a.boundsCheck(off, len(src))
	i := 0
	for i < len(src) {
		cur := off + Offset(i)
		l := LineOf(cur)
		end := (int(l) + 1) * WordsPerLine
		n := end - int(cur)
		if rem := len(src) - i; n > rem {
			n = rem
		}
		prev := a.lockLine(l)
		for j := 0; j < n; j++ {
			a.words[int(cur)+j].Store(src[i+j])
		}
		a.unlockLine(l, prev, true)
		i += n
	}
}

// CAS atomically compares the word at off with old and, if equal, replaces
// it with new. It returns the value observed before the operation and
// whether the swap happened. The line version is bumped only on success,
// so failed CASes do not generate false HTM conflicts.
func (a *Arena) CAS(off Offset, old, new uint64) (uint64, bool) {
	a.boundsCheck(off, 1)
	l := LineOf(off)
	prev := a.lockLine(l)
	cur := a.words[off].Load()
	if cur != old {
		a.unlockLine(l, prev, false)
		return cur, false
	}
	a.words[off].Store(new)
	a.unlockLine(l, prev, true)
	return cur, true
}

// FAA atomically adds delta to the word at off and returns the prior value.
func (a *Arena) FAA(off Offset, delta uint64) uint64 {
	a.boundsCheck(off, 1)
	l := LineOf(off)
	prev := a.lockLine(l)
	cur := a.words[off].Load()
	a.words[off].Store(cur + delta)
	a.unlockLine(l, prev, true)
	return cur
}

// StoreWord atomically writes a single word non-transactionally, bumping the
// line version. Used for things like the softtime word, where the paper's
// timer thread writes outside any HTM region.
func (a *Arena) StoreWord(off Offset, v uint64) {
	a.boundsCheck(off, 1)
	l := LineOf(off)
	prev := a.lockLine(l)
	a.words[off].Store(v)
	a.unlockLine(l, prev, true)
}
