// Package nvram emulates the battery-backed NVRAM DrTM logs to for
// durability (Section 4.6).
//
// The failure model is the paper's: machines fail-stop; a UPS flushes all
// transient state (registers, caches) to NVRAM on power failure
// ("flush-on-failure"), so everything written to a Log before the crash
// survives and is readable by recovery code on any surviving node.
//
// The subtle requirement is that DrTM's *write-ahead log* is appended
// inside the HTM region, so that "if the machine crashed before the HTM
// commit, the write-ahead log will not appear in NVRAM due to the
// all-or-nothing property of HTM". This falls out naturally here: AppendTx
// writes the log words transactionally, so they are published if and only
// if the enclosing HTM transaction commits. The lock-ahead and chopping
// logs, written before the HTM region, use the immediate Append.
//
// A log holds what recovery can still need, not its owner's history: the
// owner restarts it (Truncate) once every record in it is dead — for a
// worker's logs, at the start of a transaction that holds no lock and owes no
// write (package tx) — so its footprint follows the records in flight. The
// arena starts at InitialWords and doubles, live records copied, when an
// append or a reservation outgrows it; the capacity handed to NewLog is the
// cap on records not yet reclaimed, not an allocation.
package nvram

import (
	"sync/atomic"

	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// Log is a single-writer append-only record log in emulated NVRAM. Each
// worker thread owns its own logs, as in per-thread logging designs, so
// appends never contend. Scan may run on another goroutine (a survivor
// recovering the owner's machine).
type Log struct {
	arena atomic.Pointer[memory.Arena] // replaced by grow, the owner's alone
	cap   int                          // data words the arena may grow to

	// Obs, when set, counts the arena's grows (obs.EvLogGrow).
	Obs *obs.Shard
}

// Layout: word 0 is the head word — the restart generation in its high half,
// the next free data word in its low half; data starts at word 8 (its own
// cache line). Each record is framed as [len, payload...]. The generation
// changes exactly when records are discarded, which is how a concurrent Scan
// tells a log that grew under it (whatever it read is intact) from one that
// was restarted and overwritten.
const (
	headOff memory.Offset = 0
	dataOff memory.Offset = memory.WordsPerLine

	genShift = 32
	headMask = 1<<genShift - 1
)

// InitialWords is the data capacity a log starts with: more than the largest
// record an HTM region can append (its write set is bounded at 512 cache
// lines = 4096 words by default), so an empty log never needs to grow ahead
// of a region.
const InitialWords = 8 << 10

// NewLog returns a log that may hold up to capWords words of framed records
// at a time. It allocates min(capWords, InitialWords) of them.
func NewLog(id, capWords int) *Log {
	if capWords <= 0 || int(dataOff)+capWords > headMask {
		panic("nvram: log capacity out of range")
	}
	l := &Log{cap: capWords}
	l.arena.Store(newArena(id, min(capWords, InitialWords), uint64(dataOff)))
	return l
}

func newArena(id, words int, head uint64) *memory.Arena {
	a := memory.NewArena(id, int(dataOff)+words)
	a.UnsafeInit(headOff, []uint64{head})
	return a
}

// Arena exposes the backing arena as it is now; a grow replaces it.
func (l *Log) Arena() *memory.Arena { return l.arena.Load() }

// Reserve makes room for one more record of n words, doubling the arena —
// the live records copied over — as often as that takes, up to the cap. It
// reports whether the room is there; when it is not, the arena is at the cap.
// Owner only, outside any HTM region: AppendTx does not grow, so a region's
// record is reserved before the region is entered.
func (l *Log) Reserve(n int) bool {
	_, _, ok := l.room(n)
	return ok
}

// room is Reserve, handing back the arena and head word it ended on.
func (l *Log) room(n int) (a *memory.Arena, hw uint64, ok bool) {
	a = l.arena.Load()
	hw = a.LoadWord(headOff)
	need := int(hw&headMask) + 1 + n
	size, limit := l.end(a), int(dataOff)+l.cap
	if need <= size || size == limit {
		return a, hw, need <= size
	}
	for size < min(need, limit) {
		size = int(dataOff) + min(2*(size-int(dataOff)), l.cap)
	}
	live := make([]uint64, int(hw&headMask)-int(dataOff))
	a.Read(live, dataOff)
	grown := newArena(a.ID, size-int(dataOff), hw)
	grown.UnsafeInit(dataOff, live)
	l.arena.Store(grown)
	l.Obs.Inc(obs.EvLogGrow)
	return grown, hw, need <= size
}

// end is the first word offset of a past what a record may occupy (an arena
// is whole cache lines, the cap need not be).
func (l *Log) end(a *memory.Arena) int { return min(a.Len(), int(dataOff)+l.cap) }

// AppendTx appends rec transactionally: the record becomes durable exactly
// when tx commits. Returns false when the arena has no room for it, which
// after a Reserve means the log is full at its cap (callers treat that as a
// fatal configuration error).
func (l *Log) AppendTx(tx *htm.Txn, rec []uint64) bool {
	a := l.arena.Load()
	hw := tx.Read(a, headOff)
	head := memory.Offset(hw & headMask)
	if int(head)+1+len(rec) > l.end(a) {
		return false
	}
	tx.Write(a, head, uint64(len(rec)))
	for i, w := range rec {
		tx.Write(a, head+1+memory.Offset(i), w)
	}
	tx.Write(a, headOff, hw+uint64(1+len(rec)))
	return true
}

// Append appends rec immediately (durable as soon as it returns), growing the
// arena if it must; false means the log is full at its cap. Used for the
// lock-ahead and chopping logs written before the HTM region, and by the
// backups' redo rings. The length word and the payload go straight into the
// arena; the record exists once head, written last, covers it.
func (l *Log) Append(rec []uint64) bool {
	a, hw, ok := l.room(len(rec))
	if !ok {
		return false
	}
	head := memory.Offset(hw & headMask)
	a.StoreWord(head, uint64(len(rec)))
	a.Write(head+1, rec)
	a.StoreWord(headOff, hw+uint64(1+len(rec)))
	return true
}

// Scan calls fn with every record currently in the log, in append order, and
// returns the number of records. It is the log's one reader. Each record is
// copied out of the arena into buf, which is grown when a record outruns it
// and handed back for the next scan: rec aliases it and is valid only until
// fn returns, so a caller that keeps a record copies it.
//
// A scan may race the owner. Appends only extend what it reads, and a grow
// leaves it the arena it started on, intact. A restart lets the owner write
// over the records being read, so each copy is checked against the head
// word's generation before it is handed out and the scan ends at the first
// that fails: fn never sees a torn record, and every record of the log the
// scan started on was dead by the restart.
func (l *Log) Scan(buf []uint64, fn func(rec []uint64)) (n int, _ []uint64) {
	a := l.arena.Load()
	hw := a.LoadWord(headOff)
	head := memory.Offset(hw & headMask)
	for off := dataOff; off < head; n++ {
		w := a.LoadWord(off)
		if w >= uint64(head-off) {
			break // not a length this log framed: overwritten under us
		}
		if uint64(cap(buf)) < w {
			buf = make([]uint64, w)
		}
		rec := buf[:w]
		a.Read(rec, off+1)
		if a.LoadWord(headOff)>>genShift != hw>>genShift {
			break
		}
		fn(rec)
		off += 1 + memory.Offset(w)
	}
	return n, buf
}

// BytesUsed returns the durable payload footprint in bytes.
func (l *Log) BytesUsed() int {
	return int(l.arena.Load().LoadWord(headOff)&headMask-uint64(dataOff)) * 8
}

// Truncate restarts the log: every record is discarded and the next append
// lands where the first did. One store of the head word; the arena keeps the
// size it has grown to. Owner, or recovery once the owner is dead.
func (l *Log) Truncate() {
	a := l.arena.Load()
	if hw := a.LoadWord(headOff); hw&headMask != uint64(dataOff) {
		a.StoreWord(headOff, (hw>>genShift+1)<<genShift|uint64(dataOff))
	}
}
