package kvs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"drtm/internal/htm"
	"drtm/internal/memory"
)

// Config sizes a table. All tables store fixed 8-byte keys and fixed-length
// values (ValueWords 64-bit words), as in the paper's evaluation.
type Config struct {
	Node            int // owner machine ID
	RegionID        int // RDMA region the arena is registered under
	MainBuckets     int // number of main header buckets; rounded to 2^k
	IndirectBuckets int // pool of shared indirect header buckets
	Capacity        int // entries the shard can hand out, lowest offset first
	ValueWords      int // value length in words

	// ChainDepth is the per-entry version-chain ring depth (0 disables
	// chains and restores the single-slot entry layout). See layout.go.
	ChainDepth int
}

// Table is one node's shard of a DrTM-KV table. Local mutating operations
// run inside HTM transactions on the owner's engine; remote access goes
// through the methods in remote.go using one-sided verbs only.
type Table struct {
	cfg        Config
	arena      *memory.Arena
	eng        *htm.Engine
	mask       uint64
	entryWords int
	indirBase  memory.Offset
	entryBase  memory.Offset

	mu        sync.Mutex
	entries   slots
	buckets   slots // indirect header buckets
	liveCount int

	stampSeq atomic.Uint64 // the commit stamps of chain tails (StampNow)
}

// Common errors.
var (
	ErrExists = errors.New("kvs: key already exists")
	ErrFull   = errors.New("kvs: table full")
	ErrNoSlot = errors.New("kvs: bucket chain full and no indirect buckets left")
)

// New builds an empty table and its backing arena, allocated whole: a
// fabric-registered region cannot move while verbs and HTM regions hold
// offsets into it.
func New(cfg Config, eng *htm.Engine) *Table {
	if cfg.MainBuckets <= 0 || cfg.Capacity <= 0 || cfg.ValueWords < 0 {
		panic("kvs: invalid config")
	}
	mb := 1
	for mb < cfg.MainBuckets {
		mb *= 2
	}
	cfg.MainBuckets = mb

	ew := EntryImageWords(cfg.ValueWords, cfg.ChainDepth)
	if rem := ew % memory.WordsPerLine; rem != 0 {
		ew += memory.WordsPerLine - rem
	}
	t := &Table{
		cfg:        cfg,
		eng:        eng,
		mask:       uint64(mb - 1),
		entryWords: ew,
		indirBase:  memory.Offset(mb * BucketWords),
	}
	t.entryBase = t.indirBase + memory.Offset(cfg.IndirectBuckets*BucketWords)
	total := int(t.entryBase) + cfg.Capacity*ew
	t.arena = memory.NewArena(cfg.RegionID, total)
	t.entries = slots{base: t.entryBase, width: ew, limit: cfg.Capacity}
	t.buckets = slots{base: t.indirBase, width: BucketWords, limit: cfg.IndirectBuckets}
	return t
}

// Arena returns the backing arena (register it on the RDMA fabric).
func (t *Table) Arena() *memory.Arena { return t.arena }

// Node returns the owner machine ID.
func (t *Table) Node() int { return t.cfg.Node }

// RegionID returns the RDMA region ID the arena should be registered under.
func (t *Table) RegionID() int { return t.cfg.RegionID }

// ValueWords returns the fixed value length.
func (t *Table) ValueWords() int { return t.cfg.ValueWords }

// EntryWords returns the line-aligned entry footprint.
func (t *Table) EntryWords() int { return t.entryWords }

// StampNow returns a commit stamp for chain tails: the shard's monotone
// counter.
func (t *Table) StampNow() uint64 { return t.stampSeq.Add(1) }

// Engine returns the owner's HTM engine.
func (t *Table) Engine() *htm.Engine { return t.eng }

// Len returns the number of live entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.liveCount
}

// bucketOf returns the main bucket index for a key.
func (t *Table) bucketOf(key uint64) uint64 { return mix64(key) & t.mask }

// MainBucketOffset returns the arena offset of main bucket i.
func (t *Table) MainBucketOffset(i uint64) memory.Offset {
	return memory.Offset(i * BucketWords)
}

func (t *Table) allocEntry() (memory.Offset, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries.alloc()
}

func (t *Table) freeEntry(off memory.Offset) {
	t.mu.Lock()
	t.entries.free(off)
	t.mu.Unlock()
}

// EachEntry calls fn with the offset of every entry slot handed out so far,
// live or free: a slot's state word outlives its entry.
func (t *Table) EachEntry(fn func(off memory.Offset)) { t.entries.each(&t.mu, fn) }

func (t *Table) allocBucket() (memory.Offset, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buckets.alloc()
}

func (t *Table) freeBucket(off memory.Offset) {
	t.mu.Lock()
	t.buckets.free(off)
	t.mu.Unlock()
}

// LookupTx finds key transactionally, returning the entry offset. The
// bucket lines join tx's read set, so a concurrent INSERT/DELETE of this
// chain aborts tx — the HTM-based race detection the design leans on.
func (t *Table) LookupTx(tx *htm.Txn, key uint64) (memory.Offset, bool) {
	off := t.MainBucketOffset(t.bucketOf(key))
	for {
		var next memory.Offset
		for s := 0; s < SlotsPerBucket; s++ {
			w0 := tx.Read(t.arena, off+memory.Offset(s*SlotWords))
			switch SlotType(w0) {
			case TypeEntry:
				w1 := tx.Read(t.arena, off+memory.Offset(s*SlotWords+1))
				if w1 == key {
					return SlotOffset(w0), true
				}
			case TypeHeader:
				next = SlotOffset(w0)
			}
		}
		if next == 0 {
			return 0, false
		}
		off = next
	}
}

// LookupLocal finds key with plain seqlock reads (no HTM tracking). It is
// for bootstrap, verbs-served host operations that do their own locking,
// and tests.
func (t *Table) LookupLocal(key uint64) (memory.Offset, bool) {
	var buf [BucketWords]uint64
	off := t.MainBucketOffset(t.bucketOf(key))
	for {
		t.arena.Read(buf[:], off)
		var next memory.Offset
		for s := 0; s < SlotsPerBucket; s++ {
			w0 := buf[s*SlotWords]
			switch SlotType(w0) {
			case TypeEntry:
				if buf[s*SlotWords+1] == key {
					return SlotOffset(w0), true
				}
			case TypeHeader:
				next = SlotOffset(w0)
			}
		}
		if next == 0 {
			return 0, false
		}
		off = next
	}
}

// runLocal runs one of the store's own HTM regions until it commits. A store
// op is a few lines, so a conflict abort means another region committed:
// those retry without bound. Any other abort — capacity, explicit — is
// returned at once, cause and all.
func (t *Table) runLocal(fn func(tx *htm.Txn) error) error {
	for {
		err := t.eng.Run(fn)
		if ae, ok := htm.IsAbort(err); !ok || ae.Code != htm.AbortConflict {
			return err
		}
	}
}

// Insert adds a key-value pair on the owner node. The entry body is
// prepared dead (even incarnation) outside the HTM region — a freed entry
// is observable by stale remote readers, so initialization uses seqlocked
// writes — and the slot publication plus the liveness-granting incarnation
// bump happen inside one HTM transaction.
func (t *Table) Insert(key uint64, val []uint64) error {
	if len(val) != t.cfg.ValueWords {
		return fmt.Errorf("kvs: value length %d, want %d", len(val), t.cfg.ValueWords)
	}
	entry, ok := t.allocEntry()
	if !ok {
		return ErrFull
	}

	// Prepare the body: key, value, state=Init; incarnation stays even. The
	// ring is zeroed here too — a recycled entry's chain belongs to the
	// previous key at this offset.
	oldIncVer := t.arena.LoadWord(entry + EntryIncVerWord)
	inc := Incarnation(oldIncVer) // even (0 for fresh entries)
	t.arena.Write(entry+EntryKeyWord, []uint64{key})
	t.arena.Write(entry+EntryStateWord, []uint64{0})
	t.arena.Write(entry+EntryValueWord, val)
	ResetChain(t.arena, entry, t.cfg.ValueWords, t.cfg.ChainDepth)

	newIncVer := PackIncVer(inc+1, 0)
	lossy := uint64(inc+1) & slotLossyMask

	// Stamp the fresh chain tail in the prep phase too: the entry is not
	// resolvable until the slot publication below commits, so the seqlocked
	// write costs no HTM capacity and races nobody. The zeroed ring means a
	// snapshot older than this stamp resolves to Truncated (reads of a key
	// below its insert stamp fall back to the confirm-wave arm).
	if t.cfg.ChainDepth > 0 {
		t.arena.Write(TailOffset(entry, t.cfg.ValueWords, t.cfg.ChainDepth),
			[]uint64{t.StampNow(), newIncVer})
	}

	// An indirect bucket allocated during an attempt that aborts is returned
	// to the pool before the retry (transactional writes to it were
	// discarded, so it is still pristine).
	var pending memory.Offset
	err := t.runLocal(func(tx *htm.Txn) error {
		if pending != 0 {
			t.freeBucket(pending)
			pending = 0
		}
		slotOff, nb, err := t.insertSlot(tx, key)
		pending = nb
		if err != nil {
			return err
		}
		tx.Write(t.arena, slotOff, PackSlot(TypeEntry, lossy, entry))
		tx.Write(t.arena, slotOff+1, key)
		tx.Write(t.arena, entry+EntryIncVerWord, newIncVer)
		return nil
	})
	if err != nil {
		if pending != 0 {
			t.freeBucket(pending)
		}
		t.freeEntry(entry)
		return err
	}
	t.mu.Lock()
	t.liveCount++
	t.mu.Unlock()
	return nil
}

// insertSlot walks key's bucket chain once, inside the caller's HTM region:
// ErrExists if it meets key, else the first free slot in chain order. A chain
// with none converts its last slot into an indirect-header link (Section 5.2)
// and hands out slot 1 of the new bucket; that bucket is returned as nb for
// abort cleanup. The region reads what a lookup would, and no more.
func (t *Table) insertSlot(tx *htm.Txn, key uint64) (slot, nb memory.Offset, err error) {
	off := t.MainBucketOffset(t.bucketOf(key))
	var free memory.Offset
	haveFree := false
	for {
		var next memory.Offset
		for s := 0; s < SlotsPerBucket; s++ {
			so := off + memory.Offset(s*SlotWords)
			w0 := tx.Read(t.arena, so)
			switch SlotType(w0) {
			case TypeFree:
				if !haveFree {
					free, haveFree = so, true
				}
			case TypeEntry:
				if tx.Read(t.arena, so+1) == key {
					return 0, 0, ErrExists
				}
			case TypeHeader:
				next = SlotOffset(w0)
			}
		}
		if next == 0 {
			break
		}
		off = next
	}
	if haveFree {
		return free, 0, nil
	}
	nb, ok := t.allocBucket()
	if !ok {
		return 0, 0, ErrNoSlot
	}
	last := off + memory.Offset((SlotsPerBucket-1)*SlotWords)
	w0 := tx.Read(t.arena, last)
	w1 := tx.Read(t.arena, last+1)
	// Move the displaced resident into the new bucket's slot 0; the new
	// key-value pair will land in slot 1 (returned as the free slot).
	tx.Write(t.arena, nb, w0)
	tx.Write(t.arena, nb+1, w1)
	for s := 2; s < SlotsPerBucket; s++ {
		tx.Write(t.arena, nb+memory.Offset(s*SlotWords), 0)
		tx.Write(t.arena, nb+memory.Offset(s*SlotWords)+1, 0)
	}
	tx.Write(t.arena, last, PackSlot(TypeHeader, 0, nb))
	tx.Write(t.arena, last+1, 0)
	return nb + SlotWords, nb, nil
}

// Delete removes key on the owner node. The deletion is logical: the
// entry's incarnation becomes even inside the HTM region, so remote readers
// holding a stale cached location detect it by incarnation checking.
func (t *Table) Delete(key uint64) bool {
	var victim memory.Offset
	stamp := t.StampNow()
	err := t.runLocal(func(tx *htm.Txn) error {
		victim = 0
		off := t.MainBucketOffset(t.bucketOf(key))
		for {
			var next memory.Offset
			for s := 0; s < SlotsPerBucket; s++ {
				so := off + memory.Offset(s*SlotWords)
				w0 := tx.Read(t.arena, so)
				switch SlotType(w0) {
				case TypeEntry:
					if tx.Read(t.arena, so+1) == key {
						e := SlotOffset(w0)
						incver := tx.Read(t.arena, e+EntryIncVerWord)
						dead := PackIncVer(Incarnation(incver)+1, Version(incver))
						RetireTx(tx, t.arena, e, t.cfg.ValueWords, t.cfg.ChainDepth, stamp, dead)
						tx.Write(t.arena, e+EntryIncVerWord, dead)
						tx.Write(t.arena, so, 0)
						tx.Write(t.arena, so+1, 0)
						victim = e
						return nil
					}
				case TypeHeader:
					next = SlotOffset(w0)
				}
			}
			if next == 0 {
				return nil // not found
			}
			off = next
		}
	})
	if err != nil || victim == 0 {
		return false
	}
	t.freeEntry(victim)
	t.mu.Lock()
	t.liveCount--
	t.mu.Unlock()
	return true
}

// ReadTx copies key's value transactionally into val, ValueWords long.
func (t *Table) ReadTx(tx *htm.Txn, key uint64, val []uint64) bool {
	off, ok := t.LookupTx(tx, key)
	if ok {
		tx.ReadN(t.arena, off+EntryValueWord, val)
	}
	return ok
}

// WriteTx transactionally overwrites key's value and bumps its version.
func (t *Table) WriteTx(tx *htm.Txn, key uint64, val []uint64) bool {
	if len(val) != t.cfg.ValueWords {
		return false
	}
	off, ok := t.LookupTx(tx, key)
	if !ok {
		return false
	}
	incver := tx.Read(t.arena, off+EntryIncVerWord)
	next := PackIncVer(Incarnation(incver), Version(incver)+1)
	RetireTx(tx, t.arena, off, t.cfg.ValueWords, t.cfg.ChainDepth, t.StampNow(), next)
	tx.Write(t.arena, off+EntryIncVerWord, next)
	tx.WriteN(t.arena, off+EntryValueWord, val)
	return true
}

// Get runs a read in its own HTM transaction (convenience API): GetInto a
// fresh slice.
func (t *Table) Get(key uint64) ([]uint64, bool) {
	return t.GetInto(key, make([]uint64, t.cfg.ValueWords))
}

// GetInto is Get copying into the caller's buffer: it returns
// dst[:ValueWords] holding key's value, or nil when key is absent.
func (t *Table) GetInto(key uint64, dst []uint64) ([]uint64, bool) {
	val := dst[:t.cfg.ValueWords]
	var ok bool
	err := t.runLocal(func(tx *htm.Txn) error {
		ok = t.ReadTx(tx, key, val)
		return nil
	})
	if err != nil || !ok {
		return nil, false
	}
	return val, true
}

// Put runs an update in its own HTM transaction (convenience API).
func (t *Table) Put(key uint64, val []uint64) bool {
	var ok bool
	err := t.runLocal(func(tx *htm.Txn) error {
		ok = t.WriteTx(tx, key, val)
		return nil
	})
	return err == nil && ok
}
