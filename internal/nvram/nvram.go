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
package nvram

import (
	"drtm/internal/htm"
	"drtm/internal/memory"
)

// Log is a single-writer append-only record log in emulated NVRAM. Each
// worker thread owns its own logs, as in per-thread logging designs, so
// appends never contend.
type Log struct {
	arena *memory.Arena
	cap   int
}

// Layout: word 0 holds the head (next free data word); data starts at
// word 8 (its own cache line). Each record is framed as [len, payload...].
const (
	headOff memory.Offset = 0
	dataOff memory.Offset = memory.WordsPerLine
)

// NewLog allocates a log holding up to capWords words of framed records.
func NewLog(id, capWords int) *Log {
	l := &Log{cap: capWords, arena: memory.NewArena(id, int(dataOff)+capWords)}
	l.arena.UnsafeInit(headOff, []uint64{uint64(dataOff)})
	return l
}

// Arena exposes the backing arena (tests; fabric registration if a design
// wants remote log reads during recovery).
func (l *Log) Arena() *memory.Arena { return l.arena }

// AppendTx appends rec transactionally: the record becomes durable exactly
// when tx commits. Returns false when the log is full (callers treat this
// as a fatal configuration error; logs are sized for the run).
func (l *Log) AppendTx(tx *htm.Txn, rec []uint64) bool {
	head := tx.Read(l.arena, headOff)
	if int(head)+1+len(rec) > int(dataOff)+l.cap {
		return false
	}
	tx.Write(l.arena, memory.Offset(head), uint64(len(rec)))
	for i, w := range rec {
		tx.Write(l.arena, memory.Offset(head)+1+memory.Offset(i), w)
	}
	tx.Write(l.arena, headOff, head+uint64(1+len(rec)))
	return true
}

// Append appends rec immediately (durable as soon as it returns). Used for
// the lock-ahead and chopping logs written before the HTM region, and by the
// backups' redo rings. The length word and the payload go straight into the
// arena; the record exists once head, written last, covers it.
func (l *Log) Append(rec []uint64) bool {
	head := l.arena.LoadWord(headOff)
	if int(head)+1+len(rec) > int(dataOff)+l.cap {
		return false
	}
	l.arena.StoreWord(memory.Offset(head), uint64(len(rec)))
	l.arena.Write(memory.Offset(head)+1, rec)
	l.arena.StoreWord(headOff, head+uint64(1+len(rec)))
	return true
}

// Scan calls fn with every record currently in the log, in append order, and
// returns the number of records. It is the log's one reader. Each record is
// copied out of the arena into buf, which is grown when a record outruns it
// and handed back for the next scan: rec aliases it and is valid only until
// fn returns, so a caller that keeps a record copies it.
func (l *Log) Scan(buf []uint64, fn func(rec []uint64)) (n int, _ []uint64) {
	head := l.arena.LoadWord(headOff)
	for off := dataOff; uint64(off) < head; n++ {
		w := int(l.arena.LoadWord(off))
		if cap(buf) < w {
			buf = make([]uint64, w)
		}
		rec := buf[:w]
		l.arena.Read(rec, off+1)
		fn(rec)
		off += memory.Offset(1 + w)
	}
	return n, buf
}

// BytesUsed returns the durable payload footprint in bytes.
func (l *Log) BytesUsed() int {
	return int(l.arena.LoadWord(headOff)-uint64(dataOff)) * 8
}

// Truncate discards all records (checkpoint / after recovery).
func (l *Log) Truncate() {
	l.arena.StoreWord(headOff, uint64(dataOff))
}
