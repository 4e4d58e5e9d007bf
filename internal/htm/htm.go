// Package htm emulates Intel Restricted Transactional Memory (RTM) in
// software over the word arenas of package memory.
//
// The emulation preserves every RTM property the DrTM protocol depends on:
//
//   - All-or-nothing commit: writes are buffered privately and published
//     atomically (under per-line seqlocks) at XEND.
//   - Strong atomicity: a non-transactional store (e.g. a simulated one-sided
//     RDMA WRITE or CAS from another machine) bumps the affected line
//     versions, so any in-flight transaction that read those lines fails
//     validation and aborts — exactly as a remote coherence invalidation
//     aborts a real RTM transaction.
//   - Opacity: a region never acts on inconsistent data. Every line that
//     joins the read set re-validates the versions recorded so far, so the
//     values a region has seen are at all times a snapshot of one instant;
//     a region that can no longer commit aborts at that access, not later.
//   - Capacity aborts: the write set is bounded (L1-sized by default, 512
//     cache lines = 32 KB) and the read set by a larger bound; exceeding
//     either aborts with AbortCapacity. This is what makes transaction
//     chopping observable in the simulator.
//   - No progress guarantee: conflicting transactions use try-locks and
//     abort rather than block, so livelock is possible and a software
//     fallback path is required, as with real RTM.
//   - Abort codes: conflict, capacity, and explicit (XABORT imm8) are
//     distinguished, mirroring the EAX abort status of RTM.
//
// The one intentional deviation is abort *timing*: real RTM aborts a doomed
// transaction the instant a conflicting coherence message arrives, while
// this engine detects the conflict at the transaction's next access to a new
// line or to the changed line, or at commit. Published state is identical in
// both designs.
//
// Like the hardware, a region costs no memory management: its working set is
// three flat, append-only entry lists bounded by Config — read lines with the
// version observed, buffered words, write lines — each with a small
// open-addressed position index, held in a context that Run takes from a
// pool and returns on every exit. A warm region allocates nothing.
package htm

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"drtm/internal/memory"
)

// AbortCode classifies transaction aborts, mirroring RTM's abort status.
type AbortCode int

const (
	// AbortConflict corresponds to _XABORT_CONFLICT: another agent touched
	// a line in the transaction's working set.
	AbortConflict AbortCode = iota
	// AbortCapacity corresponds to _XABORT_CAPACITY: the working set
	// exceeded the hardware tracking capacity.
	AbortCapacity
	// AbortExplicit corresponds to _XABORT_EXPLICIT: the transaction
	// executed XABORT with a user code (e.g. DrTM's lock-state checks).
	AbortExplicit
)

func (c AbortCode) String() string {
	switch c {
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortCode(%d)", int(c))
	}
}

// AbortError is returned by Engine.Run when the transaction aborted.
type AbortError struct {
	Code AbortCode
	// User carries the XABORT imm8 code for explicit aborts.
	User uint8
}

func (e *AbortError) Error() string {
	if e.Code == AbortExplicit {
		return fmt.Sprintf("htm: aborted (explicit, code %d)", e.User)
	}
	return "htm: aborted (" + e.Code.String() + ")"
}

// IsAbort reports whether err is an HTM abort and returns it if so.
func IsAbort(err error) (*AbortError, bool) {
	// Run returns its aborts bare; only a caller's wrapping needs the walk.
	// errors.As's target escapes, so an error that wraps nothing — a body's
	// own sentinel — skips it and allocates nothing.
	switch err := err.(type) {
	case *AbortError:
		return err, true
	case interface{ Unwrap() error }, interface{ Unwrap() []error }:
		var ae *AbortError
		if errors.As(err, &ae) {
			return ae, true
		}
	}
	return nil, false
}

// Config bounds the emulated hardware working set.
type Config struct {
	// WriteLines is the maximum number of distinct cache lines in the write
	// set (RTM tracks writes in L1: 32 KB / 64 B = 512 lines).
	WriteLines int
	// ReadLines is the maximum number of distinct cache lines in the read
	// set (RTM tracks reads in an implementation-specific, larger structure).
	ReadLines int
}

// DefaultConfig matches the Haswell-class hardware in the paper.
func DefaultConfig() Config { return Config{WriteLines: 512, ReadLines: 4096} }

// Engine executes transactions against arenas. An Engine is typically
// per-node; it is safe for concurrent use by multiple worker goroutines. It
// counts nothing: a caller books each region's outcome, by cause, where its
// worker's other events go.
type Engine struct {
	cfg Config
}

// NewEngine returns an engine with the given capacity configuration.
// Zero bounds fall back to DefaultConfig values.
func NewEngine(cfg Config) *Engine {
	def := DefaultConfig()
	if cfg.WriteLines <= 0 {
		cfg.WriteLines = def.WriteLines
	}
	if cfg.ReadLines <= 0 {
		cfg.ReadLines = def.ReadLines
	}
	return &Engine{cfg: cfg}
}

// Config returns the working-set bounds in force (defaults filled in).
func (e *Engine) Config() Config { return e.cfg }

// entry is one element of a working set. The three sets share the shape:
// the read set holds (arena, line, version observed), the write buffer
// (arena, word offset, buffered value) and the write-line set (arena, line,
// version displaced when commit locked it).
type entry struct {
	a   *memory.Arena
	key uint64
	val uint64
}

// set is an append-only entry list with an open-addressed index from
// (arena, key) to the entry's position. Both slices keep their capacity
// across uses of the context. An index slot holds epoch<<32 | position and
// is live only while its epoch is the set's, so emptying the set is one
// increment however large the index has grown.
type set struct {
	ents  []entry
	index []uint64 // len is a power of two, at least twice len(ents)
	epoch uint64   // in [1, 1<<32)
	shift uint     // 64 - log2(len(index))
}

const initialIndexBits = 4

func newSet() set {
	return set{index: make([]uint64, 1<<initialIndexBits), epoch: 1, shift: 64 - initialIndexBits}
}

// find returns the position of (a, key) in s.ents, or -1 together with the
// free index slot that an add of it fills.
func (s *set) find(a *memory.Arena, key uint64) (pos, slot int) {
	// Arena identity is the pointer; Seq stands in for it in the hash.
	h := (key ^ bits.RotateLeft64(uint64(a.Seq()), 40)) * 0x9E3779B97F4A7C15
	mask := len(s.index) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		w := s.index[i]
		if w>>32 != s.epoch {
			return -1, i
		}
		if e := &s.ents[uint32(w)]; e.a == a && e.key == key {
			return int(uint32(w)), i
		}
	}
}

// add appends an entry that find reported absent, with the slot it returned.
func (s *set) add(slot int, a *memory.Arena, key, val uint64) {
	if 2*(len(s.ents)+1) > len(s.index) {
		s.index = make([]uint64, 2*len(s.index))
		s.shift--
		s.epoch = 1
		for pos := range s.ents {
			_, free := s.find(s.ents[pos].a, s.ents[pos].key)
			s.index[free] = 1<<32 | uint64(pos)
		}
		_, slot = s.find(a, key)
	}
	s.index[slot] = s.epoch<<32 | uint64(len(s.ents))
	s.ents = append(s.ents, entry{a, key, val})
}

// reset empties the set. The entries are zeroed so that a pooled context
// does not keep the arenas of a discarded cluster reachable.
func (s *set) reset() {
	clear(s.ents)
	s.ents = s.ents[:0]
	if s.epoch++; s.epoch == 1<<32 {
		clear(s.index)
		s.epoch = 1
	}
}

// Txn is an in-flight hardware transaction. It must only be used by the
// goroutine that began it, and only between XBEGIN and the return of the
// region function — exactly like a real RTM context: Run recycles it.
type Txn struct {
	eng    *Engine
	reads  set
	writes set
	wlines set
	held   int // commit holds the line locks of wlines.ents[:held]
}

// txnPool recycles contexts across regions and engines. A nested Run (a
// store operation inside a region body) takes a context of its own.
var txnPool = sync.Pool{New: func() any {
	return &Txn{reads: newSet(), writes: newSet(), wlines: newSet()}
}}

// Conflict and capacity aborts carry no data, so every one is the same value.
var (
	errConflict = &AbortError{Code: AbortConflict}
	errCapacity = &AbortError{Code: AbortCapacity}
)

// abortPanic carries an abort out of user code; Engine.Run recovers it.
type abortPanic struct{ err *AbortError }

// Abort explicitly aborts the transaction with a user code (XABORT imm8).
// It does not return.
func (t *Txn) Abort(user uint8) {
	panic(abortPanic{&AbortError{Code: AbortExplicit, User: user}})
}

// Read transactionally loads one word, adding its line to the read set.
func (t *Txn) Read(a *memory.Arena, off memory.Offset) uint64 {
	if len(t.writes.ents) != 0 {
		if pos, _ := t.writes.find(a, uint64(off)); pos >= 0 {
			return t.writes.ents[pos].val
		}
	}
	l := memory.LineOf(off)
	const retries = 64
	for i := 0; ; i++ {
		v1 := a.LineVersion(l)
		if v1&1 != 0 {
			if i >= retries {
				panic(abortPanic{errConflict})
			}
			yield()
			continue
		}
		val := a.LoadWord(off)
		if a.LineVersion(l) != v1 {
			if i >= retries {
				panic(abortPanic{errConflict})
			}
			yield()
			continue
		}
		pos, slot := t.reads.find(a, uint64(l))
		if pos >= 0 {
			if t.reads.ents[pos].val != v1 {
				// The line changed after we first read it: the transaction
				// is doomed (this is where real RTM would already have
				// aborted us asynchronously).
				panic(abortPanic{errConflict})
			}
			return val
		}
		if len(t.reads.ents) >= t.eng.cfg.ReadLines {
			panic(abortPanic{errCapacity})
		}
		// Opacity: val is current as of now, so it may only join values read
		// earlier if none of their lines changed in between.
		if !t.readsValid() {
			panic(abortPanic{errConflict})
		}
		t.reads.add(slot, a, uint64(l), v1)
		return val
	}
}

// readsValid reports whether every line of the read set still carries the
// version recorded for it.
func (t *Txn) readsValid() bool {
	for i := range t.reads.ents {
		if r := &t.reads.ents[i]; r.a.LineVersion(memory.Line(r.key)) != r.val {
			return false
		}
	}
	return true
}

// ReadN transactionally loads n=len(dst) consecutive words.
func (t *Txn) ReadN(a *memory.Arena, off memory.Offset, dst []uint64) {
	for i := range dst {
		dst[i] = t.Read(a, off+memory.Offset(i))
	}
}

// Write buffers a transactional store of one word.
func (t *Txn) Write(a *memory.Arena, off memory.Offset, v uint64) {
	l := uint64(memory.LineOf(off))
	if pos, slot := t.wlines.find(a, l); pos < 0 {
		if len(t.wlines.ents) >= t.eng.cfg.WriteLines {
			panic(abortPanic{errCapacity})
		}
		t.wlines.add(slot, a, l, 0)
	}
	if pos, slot := t.writes.find(a, uint64(off)); pos >= 0 {
		t.writes.ents[pos].val = v
	} else {
		t.writes.add(slot, a, uint64(off), v)
	}
}

// WriteN buffers transactional stores of consecutive words.
func (t *Txn) WriteN(a *memory.Arena, off memory.Offset, src []uint64) {
	for i, v := range src {
		t.Write(a, off+memory.Offset(i), v)
	}
}

// ReadSetLines and WriteSetLines report current working-set sizes in cache
// lines; useful for chopping heuristics and tests.
func (t *Txn) ReadSetLines() int  { return len(t.reads.ents) }
func (t *Txn) WriteSetLines() int { return len(t.wlines.ents) }

// Run executes fn as a single hardware transaction attempt (XBEGIN ... XEND).
// It returns nil on commit, an *AbortError on abort, or fn's error verbatim
// (in which case the transaction's buffered writes are discarded, i.e. the
// region is rolled back). Retry policy is the caller's responsibility, as
// with real RTM.
func (e *Engine) Run(fn func(*Txn) error) (err error) {
	t := txnPool.Get().(*Txn)
	t.eng = e
	defer func() {
		// On every exit — commit, user error, abort, a foreign panic passing
		// through — the context goes back to the pool empty and lock-free.
		r := recover()
		t.release()
		if r == nil {
			return
		}
		ap, ok := r.(abortPanic)
		if !ok {
			panic(r)
		}
		err = ap.err
	}()
	if err := fn(t); err != nil {
		// A user error rolls the region back without committing; this is
		// the moral equivalent of XABORT followed by not retrying.
		return err
	}
	if ae := t.commit(); ae != nil {
		return ae
	}
	return nil
}

// release empties the context and returns it to the pool.
func (t *Txn) release() {
	if t.held > 0 {
		// A panic escaped commit (a buffered store outside its arena) with
		// words possibly published: advance the versions.
		t.unlock(true)
	}
	t.reads.reset()
	t.writes.reset()
	t.wlines.reset()
	t.eng = nil
	txnPool.Put(t)
}

// unlock releases the line locks commit holds, newest first.
func (t *Txn) unlock(dirty bool) {
	for i := t.held - 1; i >= 0; i-- {
		w := &t.wlines.ents[i]
		w.a.UnlockLineForHTM(memory.Line(w.key), w.val, dirty)
	}
	t.held = 0
}

// commit validates the read set and publishes buffered writes atomically.
func (t *Txn) commit() *AbortError {
	if len(t.writes.ents) == 0 {
		// Read-only transactions just validate.
		if !t.readsValid() {
			return errConflict
		}
		return nil
	}

	// Acquire write-line locks in a deterministic global order. Real RTM
	// resolves write-write races through the coherence protocol; sorting
	// here avoids emulation-level deadlock while try-lock keeps the
	// "no progress guarantee" property (we abort rather than wait). The
	// sort moves entries under the write-line index, which no step from
	// here on consults.
	wl := t.wlines.ents
	slices.SortFunc(wl, func(x, y entry) int {
		if x.a != y.a {
			return cmp.Compare(x.a.Seq(), y.a.Seq())
		}
		return cmp.Compare(x.key, y.key)
	})
	for i := range wl {
		w := &wl[i]
		prev, ok := w.a.TryLockLineForHTM(memory.Line(w.key))
		if !ok {
			t.unlock(false)
			return errConflict
		}
		w.val = prev
		t.held = i + 1
		if pos, _ := t.reads.find(w.a, w.key); pos >= 0 {
			r := &t.reads.ents[pos]
			if r.val != prev {
				t.unlock(false)
				return errConflict
			}
			// Expect the locked version from here on, so that the validation
			// below needs no test for "one of my own write lines".
			r.val = prev + 1
		}
	}

	// Validate the read set while holding all write locks.
	if !t.readsValid() {
		t.unlock(false)
		return errConflict
	}

	// Publish.
	for i := range t.writes.ents {
		w := &t.writes.ents[i]
		w.a.PublishWord(memory.Offset(w.key), w.val)
	}
	t.unlock(true)
	return nil
}
