package kvs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"drtm/internal/btree"
	"drtm/internal/htm"
	"drtm/internal/memory"
)

// Ordered is DrTM's ordered store: a B+ tree index over records that live
// in the same arena-based, HTM/2PL-protected entry format as the hash
// table's. The tree maps key -> entry offset; record bodies (state word,
// version, value) are read and written transactionally exactly like
// unordered records, so the concurrency-control protocol does not care
// which store a record came from. Only the *index* structure itself uses
// latches instead of HTM (see DESIGN.md).
//
// As in the paper, ordered stores have no one-sided RDMA path: remote
// accesses ship the operation to the host via SEND/RECV verbs
// (Section 6.5), which the cluster layer wires up.
type OrderedConfig struct {
	Node       int
	RegionID   int
	Capacity   int // entries the shard can hand out, lowest offset first
	ValueWords int

	// ChainDepth is the per-entry version-chain ring depth (0 disables
	// chains; see layout.go).
	ChainDepth int

	// SegShift selects which key bits pick a record's segment stamp:
	// segment = (key >> SegShift) & (SegCount-1). Workloads whose range
	// scans cover a contiguous sub-key space (e.g. TATP's s_id<<8|sf_type
	// composite keys) set SegShift to the width of the sub-key so that one
	// subscriber's rows share a segment and scans validate few stamps.
	SegShift uint
}

// SegCount is the number of range-scan segment stamps per ordered shard.
// Each stamp is a word counter bumped atomically with every structural
// change (insert/remove of a tree entry) whose key falls in the segment —
// the bump and the tree mutation happen under the shard's structural latch.
// A scan reads its segments' stamps before walking the tree (the walk's
// read-latch orders it after any in-flight change whose bump it observed)
// and re-reads them at commit: unchanged stamps prove the tree's [lo,hi]
// membership did not change between the pre-walk read and the commit-time
// read (see DESIGN.md, "Range scans & secondary indexes").
const SegCount = 64

// segBase is the arena offset where record entries start: SegCount stamps,
// one per cache line so a bump's seqlock conflict stays private to its
// segment.
const segBase = memory.Offset(SegCount * memory.WordsPerLine)

// SegStampOffset returns the arena offset of segment s's stamp word.
func SegStampOffset(s int) memory.Offset {
	return memory.Offset(s * memory.WordsPerLine)
}

// Ordered is one node's shard of an ordered table.
type Ordered struct {
	cfg        OrderedConfig
	arena      *memory.Arena
	eng        *htm.Engine
	tree       *btree.Tree
	entryWords int

	mu      sync.Mutex
	entries slots
	zeroVal []uint64

	stampSeq atomic.Uint64 // the commit stamps of chain tails (StampNow)

	// smu is the structural latch: writers hold it exclusively across a
	// stamp bump + tree mutation pair (making them atomic to observers of
	// the stamp), scans hold it shared across their walk. Point lookups use
	// only the tree's internal latch.
	smu sync.RWMutex
}

// NewOrdered builds an empty ordered table; its arena is allocated whole, as
// New's is.
func NewOrdered(cfg OrderedConfig, eng *htm.Engine) *Ordered {
	if cfg.Capacity <= 0 || cfg.ValueWords < 0 {
		panic("kvs: invalid ordered config")
	}
	ew := EntryImageWords(cfg.ValueWords, cfg.ChainDepth)
	if rem := ew % memory.WordsPerLine; rem != 0 {
		ew += memory.WordsPerLine - rem
	}
	o := &Ordered{
		cfg:        cfg,
		eng:        eng,
		tree:       btree.New(),
		entryWords: ew,
	}
	o.arena = memory.NewArena(cfg.RegionID, int(segBase)+cfg.Capacity*ew)
	o.entries = slots{base: segBase, width: ew, limit: cfg.Capacity}
	o.zeroVal = make([]uint64, cfg.ValueWords)
	return o
}

// allocSlot takes an entry slot for a record about to be prepared.
func (o *Ordered) allocSlot() (memory.Offset, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.entries.alloc()
}

// freeSlot gives back a slot no index entry points at any more.
func (o *Ordered) freeSlot(off memory.Offset) {
	o.mu.Lock()
	o.entries.free(off)
	o.mu.Unlock()
}

// EachEntry calls fn with the offset of every entry slot handed out so far,
// live or free, as Table.EachEntry does.
func (o *Ordered) EachEntry(fn func(off memory.Offset)) { o.entries.each(&o.mu, fn) }

// stampTail seqlock-writes the entry's chain tail (no-op when chains are
// disabled). Used on private entries during insert prep; committed
// overwrites go through RetireTx/RetireLocal instead.
func (o *Ordered) stampTail(off memory.Offset, stamp, incver uint64) {
	if o.cfg.ChainDepth <= 0 {
		return
	}
	o.arena.Write(TailOffset(off, o.cfg.ValueWords, o.cfg.ChainDepth),
		[]uint64{stamp, incver})
}

// SegOf maps a key to its segment index.
func (o *Ordered) SegOf(key uint64) int {
	return int((key >> o.cfg.SegShift) & (SegCount - 1))
}

// SegSpan appends to dst the segment indices covering keys in [lo, hi].
// When the span wraps the whole stamp table, every segment is returned.
func (o *Ordered) SegSpan(dst []int, lo, hi uint64) []int {
	l, h := lo>>o.cfg.SegShift, hi>>o.cfg.SegShift
	if h < l {
		return dst
	}
	if h-l >= SegCount-1 {
		for s := 0; s < SegCount; s++ {
			dst = append(dst, s)
		}
		return dst
	}
	for v := l; ; v++ {
		dst = append(dst, int(v&(SegCount-1)))
		if v == h {
			break
		}
	}
	return dst
}

// bumpSeg advances key's segment stamp. Callers hold smu exclusively, so
// the bump is atomic with the tree mutation it announces: a scanner whose
// pre-walk and validation stamp reads match is guaranteed no membership
// change committed in between — any change it raced was either fully
// visible to its walk (the bump predates the scanner's pre-walk read, so
// the walk's read-latch waited out the writer) or bumped the stamp.
func (o *Ordered) bumpSeg(key uint64) {
	o.arena.FAA(SegStampOffset(o.SegOf(key)), 1)
}

// Arena returns the record arena (for fabric registration; remote verbs
// handlers on the host still operate through this store's methods).
func (o *Ordered) Arena() *memory.Arena { return o.arena }

// Node returns the owner machine ID.
func (o *Ordered) Node() int { return o.cfg.Node }

// RegionID returns the RDMA region ID.
func (o *Ordered) RegionID() int { return o.cfg.RegionID }

// ValueWords returns the fixed value length.
func (o *Ordered) ValueWords() int { return o.cfg.ValueWords }

// Engine returns the owner's HTM engine.
func (o *Ordered) Engine() *htm.Engine { return o.eng }

// StampNow returns a commit stamp for chain tails: the shard's monotone
// counter.
func (o *Ordered) StampNow() uint64 { return o.stampSeq.Add(1) }

// Len returns the number of live records.
func (o *Ordered) Len() int { return o.tree.Len() }

// Finger is the caller-owned leaf cache of the shard's index (btree.Finger):
// operations through one finger descend the tree only for a key none of the
// leaves it remembers covers, so runs of adjacent keys — several of them taking
// turns — cost one descent per leaf instead of one per key. The *At methods
// take one (nil for none) and report as via whether a remembered leaf served
// the operation or the index was descended, and why (btree.Path).
type Finger = btree.Finger

// IndexPath is the index's account of how an operation reached its leaf.
type IndexPath = btree.Path

const (
	IndexDescent  = btree.Descent  // no remembered leaf covers the key
	IndexFullLeaf = btree.FullLeaf // the covering leaf is remembered but full (inserts)
	IndexHit      = btree.Hit      // a remembered leaf covers the key: no descent
)

// Lookup resolves key to its entry offset via the index.
func (o *Ordered) Lookup(key uint64) (memory.Offset, bool) {
	off, ok, _ := o.LookupAt(nil, key)
	return off, ok
}

// LookupAt is Lookup starting from a finger.
func (o *Ordered) LookupAt(f *Finger, key uint64) (off memory.Offset, ok bool, via IndexPath) {
	v, ok, via := o.tree.GetAt(f, key)
	return memory.Offset(v), ok, via
}

// Insert creates a record. The body is initialized while the entry is still
// private (unreachable from the index), then the index insert publishes it.
func (o *Ordered) Insert(key uint64, val []uint64) error {
	_, err := o.InsertAt(nil, key, val)
	return err
}

// InsertAt is Insert starting from a finger.
func (o *Ordered) InsertAt(f *Finger, key uint64, val []uint64) (via IndexPath, err error) {
	if len(val) != o.cfg.ValueWords {
		return via, fmt.Errorf("kvs: value length %d, want %d", len(val), o.cfg.ValueWords)
	}
	off, ok := o.allocSlot()
	if !ok {
		return via, ErrFull
	}

	// The slot's last occupant left it dead, and the live incarnation goes in
	// last: a reader still holding the slot's old location (a cached one) sees
	// a dead entry, or another key, until the row is whole.
	inc := Incarnation(o.arena.LoadWord(off + EntryIncVerWord))
	o.arena.Write(off+EntryKeyWord, []uint64{key})
	o.arena.Write(off+EntryStateWord, []uint64{0})
	o.arena.Write(off+EntryValueWord, val)
	o.arena.Write(off+EntryIncVerWord, []uint64{PackIncVer(inc+1, 0)})
	// The ring is zeroed (a recycled slot's chain belongs to the previous
	// key) and the tail stamped while the entry is still private.
	ResetChain(o.arena, off, o.cfg.ValueWords, o.cfg.ChainDepth)
	o.stampTail(off, o.StampNow(), PackIncVer(inc+1, 0))

	o.smu.Lock()
	o.bumpSeg(key)
	ok, via = o.tree.InsertIfAbsentAt(f, key, uint64(off))
	o.smu.Unlock()
	if !ok {
		// Key already existed: kill and recycle the prepared entry.
		o.arena.Write(off+EntryIncVerWord, []uint64{PackIncVer(inc+2, 0)})
		o.freeSlot(off)
		return via, ErrExists
	}
	return via, nil
}

// Delete removes key. The record dies (even incarnation) before the entry
// is recycled.
func (o *Ordered) Delete(key uint64) bool {
	deleted, _ := o.DeleteAt(nil, key)
	return deleted
}

// DeleteAt is Delete starting from a finger. via is the lookup's: it leaves
// the key's leaf in the finger, so the removal that follows under the same
// structural latch never descends.
func (o *Ordered) DeleteAt(f *Finger, key uint64) (deleted bool, via IndexPath) {
	var own Finger
	if f == nil {
		f = &own
	}
	o.smu.Lock()
	off, ok, via := o.LookupAt(f, key)
	if !ok {
		o.smu.Unlock()
		return false, via
	}
	o.bumpSeg(key)
	ok, _ = o.tree.DeleteAt(f, key)
	o.smu.Unlock()
	if !ok {
		return false, via
	}
	incver := o.arena.LoadWord(off + EntryIncVerWord)
	dead := PackIncVer(Incarnation(incver)+1, Version(incver))
	RetireLocal(o.arena, off, o.cfg.ValueWords, o.cfg.ChainDepth, o.StampNow(), dead)
	o.arena.Write(off+EntryIncVerWord, []uint64{dead})
	o.freeSlot(off)
	return true, via
}

// EnsureDead makes key structurally present as a DEAD entry and returns its
// offset — the first half of a transactional insert — and whether it created
// the entry. The tx layer then locks the entry's state word, re-verifies
// key+deadness (the slot could have been recycled in between), and flips the
// incarnation live at commit. An existing live entry is ErrExists; an existing
// dead entry is reused as-is, state word and all (its version is kept, so the
// flip's version bump stays monotonic). A fresh slot gets incarnation inc+2 —
// still even (dead), but distinct from anything the slot's previous occupant
// published, so stale validation headers can never match a recycled slot —
// and state as its state word: the free word, or the lock of the inserter
// that would take it next, stored like the free word before the tree
// publishes the slot, so the slot is born held and no CAS follows.
//
// Aborted inserts simply leave the dead entry in place: scans skip dead
// entries, and a later insert of the same key reuses it.
func (o *Ordered) EnsureDead(key, state uint64) (off memory.Offset, created bool, err error) {
	var f Finger // the miss remembers the leaf the insert goes to
	for {
		if v, ok, _ := o.tree.GetAt(&f, key); ok {
			off := memory.Offset(v)
			if Live(Incarnation(o.arena.LoadWord(off + EntryIncVerWord))) {
				return 0, false, ErrExists
			}
			return off, false, nil
		}
		off, ok := o.allocSlot()
		if !ok {
			return 0, false, ErrFull
		}

		inc := Incarnation(o.arena.LoadWord(off + EntryIncVerWord))
		o.arena.Write(off+EntryKeyWord, []uint64{key})
		o.arena.Write(off+EntryIncVerWord, []uint64{PackIncVer(inc+2, 0)})
		o.arena.Write(off+EntryStateWord, []uint64{state})
		o.arena.Write(off+EntryValueWord, o.zeroVal)
		ResetChain(o.arena, off, o.cfg.ValueWords, o.cfg.ChainDepth)
		o.stampTail(off, o.StampNow(), PackIncVer(inc+2, 0))

		o.smu.Lock()
		o.bumpSeg(key)
		inserted, _ := o.tree.InsertIfAbsentAt(&f, key, uint64(off))
		o.smu.Unlock()
		if inserted {
			return off, true, nil
		}
		// Lost an insert race: recycle the prepared slot and re-resolve.
		o.freeSlot(off)
	}
}

// RemoveEntry unlinks a DEAD entry from the tree and recycles its slot —
// the deferred second half of a transactional delete. The caller holds the
// entry's state-word lock and has verified the entry is dead; the off check
// skips the removal if the key was re-inserted under a different slot since
// the caller resolved it. The freed slot's state word is left as the caller
// set it — Insert/EnsureDead re-initialize it on reuse.
func (o *Ordered) RemoveEntry(key uint64, off memory.Offset) bool {
	var f Finger // the lookup remembers the leaf the delete empties
	o.smu.Lock()
	if v, ok, _ := o.tree.GetAt(&f, key); !ok || memory.Offset(v) != off {
		o.smu.Unlock()
		return false
	}
	o.bumpSeg(key)
	ok, _ := o.tree.DeleteAt(&f, key)
	o.smu.Unlock()
	if !ok {
		return false
	}
	o.freeSlot(off)
	return true
}

// EntryWords returns the line-aligned words per record entry.
func (o *Ordered) EntryWords() int { return o.entryWords }

// SegShift returns the configured segment shift.
func (o *Ordered) SegShift() uint { return o.cfg.SegShift }

// ReadTx copies key's value transactionally into val, ValueWords long.
func (o *Ordered) ReadTx(tx *htm.Txn, key uint64, val []uint64) bool {
	off, ok := o.Lookup(key)
	if ok {
		tx.ReadN(o.arena, off+EntryValueWord, val)
	}
	return ok
}

// WriteTx transactionally overwrites key's value, bumping its version.
func (o *Ordered) WriteTx(tx *htm.Txn, key uint64, val []uint64) bool {
	off, ok := o.Lookup(key)
	if !ok {
		return false
	}
	incver := tx.Read(o.arena, off+EntryIncVerWord)
	next := PackIncVer(Incarnation(incver), Version(incver)+1)
	RetireTx(tx, o.arena, off, o.cfg.ValueWords, o.cfg.ChainDepth, o.StampNow(), next)
	tx.Write(o.arena, off+EntryIncVerWord, next)
	tx.WriteN(o.arena, off+EntryValueWord, val)
	return true
}

// Scan visits entry offsets for keys in [lo, hi] ascending, holding the
// structural latch shared for the whole walk (see smu).
func (o *Ordered) Scan(lo, hi uint64, fn func(key uint64, off memory.Offset) bool) {
	o.ScanAt(nil, lo, hi, fn)
}

// ScanAt is Scan starting from a finger: via is how the walk reached lo's
// leaf.
func (o *Ordered) ScanAt(f *Finger, lo, hi uint64, fn func(key uint64, off memory.Offset) bool) IndexPath {
	o.smu.RLock()
	defer o.smu.RUnlock()
	return o.tree.AscendAt(f, lo, hi, func(k, v uint64) bool { return fn(k, memory.Offset(v)) })
}

// ScanDescAt visits entry offsets for keys in [lo, hi] descending, starting
// from a finger (nil for none), as ScanAt does ascending.
func (o *Ordered) ScanDescAt(f *Finger, lo, hi uint64, fn func(key uint64, off memory.Offset) bool) IndexPath {
	o.smu.RLock()
	defer o.smu.RUnlock()
	return o.tree.DescendAt(f, lo, hi, func(k, v uint64) bool { return fn(k, memory.Offset(v)) })
}

// Min returns the smallest key and its offset.
func (o *Ordered) Min() (uint64, memory.Offset, bool) {
	k, v, ok := o.tree.Min()
	return k, memory.Offset(v), ok
}

// Get runs a read in its own HTM transaction (convenience API): GetInto a
// fresh slice.
func (o *Ordered) Get(key uint64) ([]uint64, bool) {
	return o.GetInto(key, make([]uint64, o.cfg.ValueWords))
}

// GetInto is Get copying into the caller's buffer: it returns
// dst[:ValueWords] holding key's value, or nil when key is absent.
func (o *Ordered) GetInto(key uint64, dst []uint64) ([]uint64, bool) {
	val := dst[:o.cfg.ValueWords]
	var ok bool
	const attempts = 10_000
	for i := 0; i < attempts; i++ {
		err := o.eng.Run(func(tx *htm.Txn) error {
			ok = o.ReadTx(tx, key, val)
			return nil
		})
		if err == nil && ok {
			return val, true
		}
		if _, isAbort := htm.IsAbort(err); !isAbort {
			break // absent, or a failure no retry cures
		}
	}
	return nil, false
}
