package nvram

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// records copies every record out of the log through Scan.
func records(l *Log) [][]uint64 {
	var out [][]uint64
	l.Scan(nil, func(rec []uint64) { out = append(out, slices.Clone(rec)) })
	return out
}

// count returns the number of records in the log.
func count(l *Log) int {
	n, _ := l.Scan(nil, func([]uint64) {})
	return n
}

func TestAppendAndScan(t *testing.T) {
	l := NewLog(0, 1024)
	if !l.Append([]uint64{1, 2, 3}) {
		t.Fatal("append failed")
	}
	if !l.Append([]uint64{9}) {
		t.Fatal("append failed")
	}
	got := records(l)
	if len(got) != 2 || len(got[0]) != 3 || got[0][2] != 3 || got[1][0] != 9 {
		t.Fatalf("entries = %v", got)
	}
	if count(l) != 2 {
		t.Fatalf("Scan counted %d records", count(l))
	}
	if l.BytesUsed() != (4+2)*8 {
		t.Fatalf("BytesUsed = %d", l.BytesUsed())
	}
}

func TestAppendFull(t *testing.T) {
	l := NewLog(0, 4)
	if !l.Append([]uint64{1, 2, 3}) {
		t.Fatal("first append should fit")
	}
	if l.Append([]uint64{1}) {
		t.Fatal("overfull append succeeded")
	}
}

func TestTruncate(t *testing.T) {
	l := NewLog(0, 64)
	l.Append([]uint64{1})
	l.Truncate()
	if count(l) != 0 {
		t.Fatal("Truncate left records")
	}
	if !l.Append([]uint64{2}) {
		t.Fatal("append after truncate failed")
	}
	if records(l)[0][0] != 2 {
		t.Fatal("wrong record after truncate")
	}
}

// TestAppendTxCommitDurable: a transactional append is visible after commit.
func TestAppendTxCommitDurable(t *testing.T) {
	l := NewLog(0, 1024)
	eng := htm.NewEngine(htm.Config{})
	err := eng.Run(func(tx *htm.Txn) error {
		if !l.AppendTx(tx, []uint64{7, 8}) {
			t.Error("AppendTx failed")
		}
		// Before commit, the record must be invisible.
		if count(l) != 0 {
			t.Error("uncommitted log record visible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := records(l)
	if len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("entries after commit = %v", got)
	}
}

// TestAppendTxAbortDiscarded is the paper's key durability property: a
// crash (or abort) before XEND leaves no write-ahead log record.
func TestAppendTxAbortDiscarded(t *testing.T) {
	l := NewLog(0, 1024)
	eng := htm.NewEngine(htm.Config{})
	boom := errors.New("simulated abort before XEND")
	err := eng.Run(func(tx *htm.Txn) error {
		l.AppendTx(tx, []uint64{13})
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if count(l) != 0 {
		t.Fatal("aborted transactional append is durable")
	}
	// The log must still accept appends afterwards at the original head.
	l.Append([]uint64{1})
	if count(l) != 1 {
		t.Fatal("log corrupt after aborted append")
	}
}

// TestAppendTxFull: AppendTx never grows the arena — it runs inside an HTM
// region — so a record that does not fit the arena as it is fails, whether or
// not the cap has room; Reserve, ahead of the region, is what makes the room,
// and at the cap neither can.
func TestAppendTxFull(t *testing.T) {
	eng := htm.NewEngine(htm.Config{})
	appendTx := func(l *Log, rec []uint64) (ok bool) {
		if err := eng.Run(func(tx *htm.Txn) error {
			ok = l.AppendTx(tx, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if appendTx(NewLog(0, 2), []uint64{1, 2, 3}) {
		t.Error("AppendTx of three words succeeded in a log capped at two")
	}

	l := NewLog(0, 2*InitialWords)
	if !l.Append(make([]uint64, InitialWords-1)) { // the first arena, to the word
		t.Fatal("append failed")
	}
	rec := []uint64{1, 2, 3}
	if appendTx(l, rec) {
		t.Fatal("AppendTx succeeded in a full arena: it grew inside the region")
	}
	if !l.Reserve(len(rec)) || l.Arena().Len() != int(dataOff)+2*InitialWords {
		t.Fatalf("Reserve under the cap: arena of %d words", l.Arena().Len())
	}
	if !appendTx(l, rec) {
		t.Fatal("AppendTx failed after Reserve made the room")
	}
	if l.Reserve(InitialWords) || appendTx(l, make([]uint64, InitialWords)) {
		t.Fatal("a record past the cap was reserved or appended")
	}
	if got := records(l); len(got) != 2 || !slices.Equal(got[1], rec) {
		t.Fatalf("%d records after the refused append, want the two that fit", len(got))
	}
}

func TestInterleavedTxAndImmediate(t *testing.T) {
	l := NewLog(0, 1024)
	eng := htm.NewEngine(htm.Config{})
	l.Append([]uint64{1})
	err := eng.Run(func(tx *htm.Txn) error {
		l.AppendTx(tx, []uint64{2})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]uint64{3})
	got := records(l)
	if len(got) != 3 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Fatalf("entries = %v", got)
	}
}

// TestLogScanEmpty: an empty log — fresh, or truncated — calls fn for nothing
// and hands the buffer back untouched.
func TestLogScanEmpty(t *testing.T) {
	l := NewLog(0, 64)
	buf := make([]uint64, 4)
	for _, phase := range []string{"fresh", "truncated"} {
		n, got := l.Scan(buf, func([]uint64) { t.Errorf("%s: fn called on an empty log", phase) })
		if n != 0 || &got[0] != &buf[0] || len(got) != len(buf) {
			t.Fatalf("%s: n = %d, buffer replaced", phase, n)
		}
		l.Append([]uint64{1, 2})
		l.Truncate()
	}
}

// TestLogScanStraddlesLines: records of every length up to three cache lines,
// back to back so that they start at every word of a line and cross line
// boundaries, come back word for word and in order.
func TestLogScanStraddlesLines(t *testing.T) {
	l := NewLog(0, 4096)
	var want [][]uint64
	for n := 0; n <= 3*memory.WordsPerLine; n++ {
		rec := make([]uint64, n)
		for i := range rec {
			rec[i] = uint64(n)<<16 | uint64(i)
		}
		if !l.Append(rec) {
			t.Fatalf("append of %d words failed", n)
		}
		want = append(want, rec)
	}
	i := 0
	n, _ := l.Scan(nil, func(rec []uint64) {
		if !slices.Equal(rec, want[i]) {
			t.Errorf("record %d = %v, want %v", i, rec, want[i])
		}
		i++
	})
	if n != len(want) || i != n {
		t.Fatalf("scanned %d records (fn called %d times), appended %d", n, i, len(want))
	}
}

// TestLogScanBufferGrowthAndReuse: the buffer grows to the largest record,
// comes back to the caller, and a second scan with it allocates nothing; a
// record seen earlier is overwritten by the next (the in-place contract).
func TestLogScanBufferGrowthAndReuse(t *testing.T) {
	l := NewLog(0, 1024)
	l.Append([]uint64{1})
	l.Append(make([]uint64, 40))
	l.Append([]uint64{7, 8})
	_, buf := l.Scan(make([]uint64, 0, 2), func([]uint64) {})
	if cap(buf) < 40 {
		t.Fatalf("buffer cap %d after a 40-word record", cap(buf))
	}
	var first, last []uint64
	allocs := testing.AllocsPerRun(10, func() {
		first = nil
		_, buf = l.Scan(buf, func(rec []uint64) {
			if first == nil {
				first = rec
			}
			last = rec
		})
	})
	if allocs != 0 {
		t.Fatalf("scan with a grown buffer allocated %.0f objects", allocs)
	}
	if &last[0] != &buf[0] || !slices.Equal(last, []uint64{7, 8}) {
		t.Fatalf("last record %v does not alias the returned buffer", last)
	}
	if first[0] != 7 {
		t.Fatalf("first record reads %d after the scan: not overwritten in place by the last", first[0])
	}
}

// TestLogScanAfterTruncate: appends after a truncate are all a scan sees.
func TestLogScanAfterTruncate(t *testing.T) {
	l := NewLog(0, 64)
	l.Append([]uint64{1, 1, 1})
	l.Append([]uint64{2})
	l.Truncate()
	l.Append([]uint64{3, 4})
	if got := records(l); len(got) != 1 || !slices.Equal(got[0], []uint64{3, 4}) {
		t.Fatalf("records after truncate + append = %v", got)
	}
}

// TestLogScanAppendTxEqualsAppend: the transactional and the immediate
// append frame a record identically.
func TestLogScanAppendTxEqualsAppend(t *testing.T) {
	recs := [][]uint64{{}, {5}, {1, 2, 3, 4, 5, 6, 7, 8, 9}, {0xFF}}
	imm, txl := NewLog(0, 256), NewLog(1, 256)
	eng := htm.NewEngine(htm.Config{})
	for _, rec := range recs {
		imm.Append(rec)
		if err := eng.Run(func(tx *htm.Txn) error {
			if !txl.AppendTx(tx, rec) {
				t.Error("AppendTx failed")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := records(imm), records(txl)
	if len(a) != len(recs) || len(b) != len(recs) {
		t.Fatalf("%d / %d records, appended %d", len(a), len(b), len(recs))
	}
	for i := range recs {
		if !slices.Equal(a[i], recs[i]) || !slices.Equal(b[i], recs[i]) {
			t.Fatalf("record %d: Append %v, AppendTx %v, want %v", i, a[i], b[i], recs[i])
		}
	}
	if imm.BytesUsed() != txl.BytesUsed() {
		t.Fatalf("BytesUsed %d vs %d", imm.BytesUsed(), txl.BytesUsed())
	}
}

// TestLogGrowKeepsRecords: records survive every doubling word for word, the
// arena stops at the cap, and a log full at the cap refuses Append and AppendTx
// alike without losing what it holds.
func TestLogGrowKeepsRecords(t *testing.T) {
	const cap = 5*InitialWords + 3 // not a power of two, not whole lines
	l := NewLog(0, cap)
	sh := obs.NewShard()
	l.Obs = sh
	var want [][]uint64
	for n := 1; ; n++ {
		rec := make([]uint64, 200+n%7)
		for i := range rec {
			rec[i] = uint64(n)<<20 | uint64(i)
		}
		before := l.Arena()
		if !l.Append(rec) {
			break
		}
		if l.Arena() != before { // grew: the old arena is what a Scan had before
			old := &Log{cap: cap}
			old.arena.Store(before)
			if got := records(old); !slices.EqualFunc(got, want, func(a, b []uint64) bool { return slices.Equal(a, b) }) {
				t.Fatalf("grow at record %d: the records before it differ from the records appended", n)
			}
		}
		want = append(want, rec)
		if got := records(l); len(got) != len(want) || !slices.Equal(got[len(got)-1], rec) || !slices.Equal(got[0], want[0]) {
			t.Fatalf("after record %d: %d records scan, %d appended", n, len(got), len(want))
		}
	}
	if got := l.Arena().Len(); got < int(dataOff)+cap || got >= int(dataOff)+cap+memory.WordsPerLine {
		t.Fatalf("arena of %d words at the cap of %d", got, cap)
	}
	if free := cap - l.BytesUsed()/8; free > 207 {
		t.Fatalf("append refused with %d words free under the cap", free)
	}
	if grows := sh.Count(obs.EvLogGrow); grows != 3 { // 8Ki -> 16Ki -> 32Ki -> cap
		t.Fatalf("%d grows, want 3", grows)
	}
	eng := htm.NewEngine(htm.Config{})
	_ = eng.Run(func(tx *htm.Txn) error {
		if l.AppendTx(tx, make([]uint64, 207)) {
			t.Error("AppendTx succeeded in a log full at its cap")
		}
		return nil
	})
	got := records(l)
	if len(got) != len(want) {
		t.Fatalf("%d records at the cap, %d appended", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs after %d grows", i, 3)
		}
	}
	// A restart keeps the arena; the log is usable to the cap again.
	l.Truncate()
	if l.BytesUsed() != 0 || !l.Append(make([]uint64, cap-1)) || l.Append(nil) {
		t.Fatal("a restarted log does not hold exactly its cap")
	}
	if sh.Count(obs.EvLogGrow) != 3 {
		t.Fatal("a restarted log grew again")
	}
}

// TestAppendTxAfterRestart: a restart is the owner's, outside any region; the
// transactional append that follows it is all-or-nothing on top of whatever the
// log held when the region began — an abort leaves exactly that, a commit adds
// the one record — and nothing from before the restart ever scans again, though
// its words still lie in the arena past the head.
func TestAppendTxAfterRestart(t *testing.T) {
	l := NewLog(0, 1024)
	eng := htm.NewEngine(htm.Config{})
	for i := uint64(1); i <= 5; i++ {
		l.Append([]uint64{i, i, i, i})
	}
	l.Truncate()
	l.Append([]uint64{100}) // the next transaction's lock-ahead record, say
	boom := errors.New("abort")
	if err := eng.Run(func(tx *htm.Txn) error {
		l.AppendTx(tx, []uint64{200, 201})
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if got := records(l); len(got) != 1 || got[0][0] != 100 {
		t.Fatalf("after the aborted region: %v, want the one record appended since the restart", got)
	}
	if err := eng.Run(func(tx *htm.Txn) error {
		l.AppendTx(tx, []uint64{200, 201})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := records(l); len(got) != 2 || !slices.Equal(got[1], []uint64{200, 201}) {
		t.Fatalf("after the committed region: %v", got)
	}
	// Restarting an empty log is no store at all: the generation stays.
	l.Truncate()
	hw := l.Arena().LoadWord(headOff)
	l.Truncate()
	if l.Arena().LoadWord(headOff) != hw {
		t.Fatal("restart of an empty log rewrote the head word")
	}
}

// TestLogScanNeverTornByOwner: a survivor scans while the owner appends,
// restarts and grows. Every record is n copies of n, so a frame cut by a
// restart — a length from one record over a payload from another, or half a
// payload — shows. A scan may end early when the log is restarted under it; it
// must never hand out a record the owner did not append.
func TestLogScanNeverTornByOwner(t *testing.T) {
	l := NewLog(0, 4*InitialWords)
	done := make(chan struct{})
	go func() { // the owner
		defer close(done)
		for round := 1; round <= 150; round++ {
			for n := 1; n <= 40+round; n++ {
				rec := make([]uint64, 1+(n*round)%97)
				for i := range rec {
					rec[i] = uint64(len(rec))
				}
				if !l.Append(rec) {
					t.Error("append failed under the cap")
					return
				}
				if n%16 == 0 {
					runtime.Gosched() // one core: let the scanner in mid-log
				}
			}
			l.Truncate()
		}
	}()
	var buf []uint64
	scanned := 0
	for owner := true; owner; {
		select {
		case <-done:
			owner = false
		default:
		}
		_, buf = l.Scan(buf, func(rec []uint64) {
			scanned++
			for _, w := range rec {
				if w != uint64(len(rec)) {
					t.Fatalf("torn record: %d words, holds %d", len(rec), w)
				}
			}
		})
		runtime.Gosched()
	}
	if scanned == 0 {
		t.Fatal("the scans saw no record at all")
	}
}
