package nvram

import (
	"errors"
	"slices"
	"testing"

	"drtm/internal/htm"
	"drtm/internal/memory"
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

func TestAppendTxFull(t *testing.T) {
	l := NewLog(0, 2)
	eng := htm.NewEngine(htm.Config{})
	_ = eng.Run(func(tx *htm.Txn) error {
		if l.AppendTx(tx, []uint64{1, 2, 3}) {
			t.Error("overfull AppendTx succeeded")
		}
		return nil
	})
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
