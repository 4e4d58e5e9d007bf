package htm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"drtm/internal/memory"
)

func newEngine() *Engine { return NewEngine(Config{}) }

func TestCommitPublishesWrites(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 64)
	err := e.Run(func(tx *Txn) error {
		tx.Write(a, 1, 10)
		tx.Write(a, 9, 20) // different line
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.LoadWord(1) != 10 || a.LoadWord(9) != 20 {
		t.Fatal("committed writes not visible")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 64)
	err := e.Run(func(tx *Txn) error {
		tx.Write(a, 0, 7)
		if got := tx.Read(a, 0); got != 7 {
			t.Errorf("read-own-write = %d, want 7", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWritesInvisibleBeforeCommit(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	inRegion := make(chan struct{})
	done := make(chan struct{})
	var observed uint64
	go func() {
		<-inRegion
		observed = a.LoadWord(0)
		close(done)
	}()
	err := e.Run(func(tx *Txn) error {
		tx.Write(a, 0, 42)
		close(inRegion)
		<-done
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if observed != 0 {
		t.Fatalf("non-transactional reader saw buffered write: %d", observed)
	}
	if a.LoadWord(0) != 42 {
		t.Fatal("write lost after commit")
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	sentinel := errors.New("boom")
	err := e.Run(func(tx *Txn) error {
		tx.Write(a, 0, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if a.LoadWord(0) != 0 {
		t.Fatal("rolled-back write became visible")
	}
}

func TestExplicitAbort(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	err := e.Run(func(tx *Txn) error {
		tx.Write(a, 0, 1)
		tx.Abort(0xAB)
		t.Error("unreachable after Abort")
		return nil
	})
	ae, ok := IsAbort(err)
	if !ok || ae.Code != AbortExplicit || ae.User != 0xAB {
		t.Fatalf("err = %v, want explicit abort 0xAB", err)
	}
	if a.LoadWord(0) != 0 {
		t.Fatal("aborted write became visible")
	}
}

func TestCapacityAbortWrites(t *testing.T) {
	e := NewEngine(Config{WriteLines: 4, ReadLines: 1024})
	a := memory.NewArena(0, 1024)
	err := e.Run(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			tx.Write(a, memory.Offset(i*memory.WordsPerLine), 1)
		}
		return nil
	})
	ae, ok := IsAbort(err)
	if !ok || ae.Code != AbortCapacity {
		t.Fatalf("err = %v, want capacity abort", err)
	}
}

func TestCapacityAbortReads(t *testing.T) {
	e := NewEngine(Config{WriteLines: 512, ReadLines: 4})
	a := memory.NewArena(0, 1024)
	err := e.Run(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			tx.Read(a, memory.Offset(i*memory.WordsPerLine))
		}
		return nil
	})
	ae, ok := IsAbort(err)
	if !ok || ae.Code != AbortCapacity {
		t.Fatalf("err = %v, want capacity abort", err)
	}
}

// TestStrongAtomicityRemoteWriteAbortsReader reproduces Figure 2(b)/(c):
// a non-transactional store (simulating a one-sided RDMA op) to a line in an
// HTM transaction's read set aborts that transaction at commit.
func TestStrongAtomicityRemoteWriteAbortsReader(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	err := e.Run(func(tx *Txn) error {
		_ = tx.Read(a, 0)
		a.StoreWord(0, 5) // "RDMA" write from elsewhere
		return nil
	})
	ae, ok := IsAbort(err)
	if !ok || ae.Code != AbortConflict {
		t.Fatalf("err = %v, want conflict abort", err)
	}
}

// TestStrongAtomicityCASAbortsWriter: a remote CAS on a line in the write
// set dooms the transaction (write-write conflict detected at publication).
func TestStrongAtomicityCASAbortsWriter(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	err := e.Run(func(tx *Txn) error {
		_ = tx.Read(a, 0) // record the version: DrTM's local ops read state first
		tx.Write(a, 0, 1)
		a.CAS(0, 0, 77)
		return nil
	})
	ae, ok := IsAbort(err)
	if !ok || ae.Code != AbortConflict {
		t.Fatalf("err = %v, want conflict abort", err)
	}
	if a.LoadWord(0) != 77 {
		t.Fatal("remote CAS result lost")
	}
}

// TestDoomedReadAbortsEagerly: re-reading a line whose version changed
// mid-transaction aborts immediately (opacity).
func TestDoomedReadAbortsEagerly(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	err := e.Run(func(tx *Txn) error {
		_ = tx.Read(a, 0)
		a.StoreWord(1, 9) // same line, non-transactional
		_ = tx.Read(a, 0) // must abort here, not at commit
		t.Error("unreachable: doomed read did not abort")
		return nil
	})
	if ae, ok := IsAbort(err); !ok || ae.Code != AbortConflict {
		t.Fatalf("err = %v, want conflict abort", err)
	}
}

func TestConflictingCommitsOneWins(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 8)
	const goroutines, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					err := e.Run(func(tx *Txn) error {
						v := tx.Read(a, 0)
						tx.Write(a, 0, v+1)
						return nil
					})
					if err == nil {
						break
					}
					if _, ok := IsAbort(err); !ok {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := a.LoadWord(0); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, goroutines*iters)
	}
}

// TestSerializabilityRandomTransfers is the core property test: concurrent
// random transfers between accounts must conserve the total balance, and no
// committed transaction may have observed a non-integral snapshot.
func TestSerializabilityRandomTransfers(t *testing.T) {
	e := newEngine()
	const accounts = 16
	a := memory.NewArena(0, accounts*memory.WordsPerLine) // one account per line
	for i := 0; i < accounts; i++ {
		a.UnsafeInit(memory.Offset(i*memory.WordsPerLine), []uint64{1000})
	}
	const total = accounts * 1000

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				fi, ti := r.Intn(accounts), r.Intn(accounts)
				if fi == ti {
					continue
				}
				from := memory.Offset(fi * memory.WordsPerLine)
				to := memory.Offset(ti * memory.WordsPerLine)
				amt := uint64(r.Intn(10))
				for {
					err := e.Run(func(tx *Txn) error {
						f := tx.Read(a, from)
						tVal := tx.Read(a, to)
						if f < amt {
							return nil // insufficient funds; commit read-only
						}
						tx.Write(a, from, f-amt)
						tx.Write(a, to, tVal+amt)
						return nil
					})
					if err == nil {
						break
					}
				}
			}
		}(int64(g))
	}

	// A concurrent auditor transaction repeatedly checks conservation.
	auditDone := make(chan struct{})
	var audited, auditAborts int
	go func() {
		defer close(auditDone)
		for i := 0; i < 100; i++ {
			err := e.Run(func(tx *Txn) error {
				var sum uint64
				for j := 0; j < accounts; j++ {
					sum += tx.Read(a, memory.Offset(j*memory.WordsPerLine))
				}
				if sum != total {
					t.Errorf("auditor saw total %d, want %d", sum, total)
				}
				return nil
			})
			if err == nil {
				audited++
			} else {
				auditAborts++
			}
		}
	}()

	wg.Wait()
	<-auditDone

	var sum uint64
	for j := 0; j < accounts; j++ {
		sum += a.LoadWord(memory.Offset(j * memory.WordsPerLine))
	}
	if sum != total {
		t.Fatalf("final total = %d, want %d", sum, total)
	}
}

// TestOpacityWriterBetweenReads pins the interleaving that
// TestSerializabilityRandomTransfers only meets by scheduler luck: a writer
// moves 100 from account A to account B and commits between a reader's read
// of A and its read of B. The reader must abort at the second read; summing
// the old A with the new B would be acting on a state that never existed.
func TestOpacityWriterBetweenReads(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 2*memory.WordsPerLine)
	const offA, offB = 0, memory.WordsPerLine
	a.UnsafeInit(offA, []uint64{1000})
	a.UnsafeInit(offB, []uint64{1000})

	readA, committed := make(chan struct{}), make(chan error)
	go func() {
		<-readA
		committed <- e.Run(func(tx *Txn) error {
			tx.Write(a, offA, tx.Read(a, offA)-100)
			tx.Write(a, offB, tx.Read(a, offB)+100)
			return nil
		})
	}()

	err := e.Run(func(tx *Txn) error {
		va := tx.Read(a, offA)
		close(readA)
		if werr := <-committed; werr != nil {
			t.Errorf("writer: %v", werr)
		}
		vb := tx.Read(a, offB)
		t.Errorf("reader went on with A=%d B=%d (sum %d, want abort)", va, vb, va+vb)
		return nil
	})
	if ae, ok := IsAbort(err); !ok || ae.Code != AbortConflict {
		t.Fatalf("err = %v, want conflict abort", err)
	}
}

// TestLargeWorkingSet drives the flat sets far past their initial size:
// 400 write lines and 3000 read lines over two arenas, several words per
// line, with read-own-write before the commit and every word checked after.
func TestLargeWorkingSet(t *testing.T) {
	const wLines, rLines = 400, 3000
	e := newEngine()
	arenas := [2]*memory.Arena{
		memory.NewArena(0, rLines*memory.WordsPerLine),
		memory.NewArena(0, rLines*memory.WordsPerLine), // same ID: identity is the pointer
	}
	lineOff := func(i int) (*memory.Arena, memory.Offset) {
		return arenas[i%2], memory.Offset(i / 2 * memory.WordsPerLine)
	}
	for i := 0; i < rLines; i++ {
		a, off := lineOff(i)
		a.UnsafeInit(off+7, []uint64{uint64(i)})
	}
	val := func(i, w int) uint64 { return uint64(i*10+w) + 1 }
	err := e.Run(func(tx *Txn) error {
		for i := 0; i < rLines; i++ {
			a, off := lineOff(i)
			if got := tx.Read(a, off+7); got != uint64(i) {
				t.Errorf("line %d word 7 = %d, want %d", i, got, i)
			}
		}
		for i := 0; i < wLines; i++ {
			a, off := lineOff(i)
			for w := 0; w < 3; w++ {
				tx.Write(a, off+memory.Offset(w), 0)
				tx.Write(a, off+memory.Offset(w), val(i, w)) // same word again
			}
		}
		for i := 0; i < wLines; i++ {
			a, off := lineOff(i)
			for w := 0; w < 3; w++ {
				if got := tx.Read(a, off+memory.Offset(w)); got != val(i, w) {
					t.Errorf("read-own-write line %d word %d = %d, want %d", i, w, got, val(i, w))
				}
			}
		}
		if tx.ReadSetLines() != rLines || tx.WriteSetLines() != wLines {
			t.Errorf("working set = %d read / %d write lines, want %d / %d",
				tx.ReadSetLines(), tx.WriteSetLines(), rLines, wLines)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < rLines; i++ {
		a, off := lineOff(i)
		for w := 0; w < 3; w++ {
			want := uint64(0)
			if i < wLines {
				want = val(i, w)
			}
			if got := a.LoadWord(off + memory.Offset(w)); got != want {
				t.Fatalf("after commit line %d word %d = %d, want %d", i, w, got, want)
			}
		}
	}
}

// TestCapacityBoundaries: the default budget admits exactly 512 write lines
// and 4096 read lines; one more distinct line aborts.
func TestCapacityBoundaries(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 4100*memory.WordsPerLine)
	touch := func(lines int, write bool) error {
		return e.Run(func(tx *Txn) error {
			for i := 0; i < lines; i++ {
				off := memory.Offset(i * memory.WordsPerLine)
				if write {
					tx.Write(a, off, 1)
					tx.Write(a, off+1, 1) // same line: no new capacity
				} else {
					tx.Read(a, off)
					tx.Read(a, off+1)
				}
			}
			return nil
		})
	}
	for _, c := range []struct {
		lines int
		write bool
		abort bool
	}{{512, true, false}, {513, true, true}, {4096, false, false}, {4097, false, true}} {
		err := touch(c.lines, c.write)
		ae, isAbort := IsAbort(err)
		if isAbort != c.abort || (c.abort && ae.Code != AbortCapacity) {
			t.Errorf("%d lines (write=%v): err = %v, want capacity abort = %v", c.lines, c.write, err, c.abort)
		}
	}
}

// TestNestedRunOwnContext: a Run inside a region body (a store operation
// under a transaction) works on a context of its own — it neither sees the
// outer region's buffered writes nor disturbs its working set.
func TestNestedRunOwnContext(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 64)
	err := e.Run(func(outer *Txn) error {
		outer.Read(a, 0)
		outer.Write(a, 8, 7)
		inner := e.Run(func(tx *Txn) error {
			if tx == outer {
				t.Error("nested Run got the outer context")
			}
			if tx.ReadSetLines() != 0 || tx.WriteSetLines() != 0 {
				t.Errorf("nested context not empty: %d/%d lines", tx.ReadSetLines(), tx.WriteSetLines())
			}
			if got := tx.Read(a, 8); got != 0 {
				t.Errorf("nested region saw the outer buffered write: %d", got)
			}
			tx.Write(a, 16, 5)
			return nil
		})
		if inner != nil {
			t.Errorf("nested Run: %v", inner)
		}
		if outer.ReadSetLines() != 1 || outer.WriteSetLines() != 1 {
			t.Errorf("outer working set disturbed: %d/%d lines", outer.ReadSetLines(), outer.WriteSetLines())
		}
		if got := outer.Read(a, 8); got != 7 {
			t.Errorf("outer read-own-write = %d, want 7", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.LoadWord(8) != 7 || a.LoadWord(16) != 5 {
		t.Fatalf("published %d and %d, want 7 and 5", a.LoadWord(8), a.LoadWord(16))
	}
}

// TestContextCleanAfterEveryExit: whichever way a region ends — huge and
// aborted, user error, foreign panic — the next one starts from an empty
// working set. The first region buffers 3000 lines of writes-to-be-discarded,
// so a recycled context's indexes are large when the small regions use them.
func TestContextCleanAfterEveryExit(t *testing.T) {
	e := NewEngine(Config{WriteLines: 4096})
	a := memory.NewArena(0, 3000*memory.WordsPerLine)
	expectClean := func(when string) {
		t.Helper()
		err := e.Run(func(tx *Txn) error {
			if tx.ReadSetLines() != 0 || tx.WriteSetLines() != 0 {
				t.Errorf("%s: context starts with %d/%d lines", when, tx.ReadSetLines(), tx.WriteSetLines())
			}
			// Offsets the discarded regions wrote: memory, not a stale buffer.
			for _, off := range []memory.Offset{0, 8, 2999 * memory.WordsPerLine} {
				if got := tx.Read(a, off); got != 0 {
					t.Errorf("%s: read %d at %d, want 0", when, got, off)
				}
			}
			tx.Write(a, 0, 0)
			return nil
		})
		if err != nil {
			t.Errorf("%s: Run: %v", when, err)
		}
	}

	err := e.Run(func(tx *Txn) error {
		for i := 0; i < 3000; i++ {
			off := memory.Offset(i * memory.WordsPerLine)
			tx.Read(a, off+1)
			tx.Write(a, off, 99)
		}
		tx.Abort(1)
		return nil
	})
	if _, ok := IsAbort(err); !ok {
		t.Fatalf("err = %v, want abort", err)
	}
	expectClean("after a 3000-line abort")

	sentinel := errors.New("boom")
	if err := e.Run(func(tx *Txn) error { tx.Write(a, 8, 99); return sentinel }); err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	expectClean("after a user error")

	func() {
		defer func() {
			if r := recover(); r != "foreign" {
				t.Errorf("recovered %v, want the foreign panic re-raised", r)
			}
		}()
		_ = e.Run(func(tx *Txn) error { tx.Write(a, 8, 99); panic("foreign") })
	}()
	expectClean("after a foreign panic")
}

// TestSetIndex exercises the position index on its own: growth by doubling,
// lookups across arenas that share keys, and the O(1) reset — including the
// epoch wrap-around that falls back to clearing the index.
func TestSetIndex(t *testing.T) {
	a, b := memory.NewArena(0, 8), memory.NewArena(0, 8)
	s := newSet()
	fill := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			for _, ar := range []*memory.Arena{a, b} {
				pos, slot := s.find(ar, uint64(k))
				if pos >= 0 {
					t.Fatalf("key %d found before it was added", k)
				}
				s.add(slot, ar, uint64(k), uint64(k)*2)
			}
		}
		for k := 0; k < n; k++ {
			pa, _ := s.find(a, uint64(k))
			pb, _ := s.find(b, uint64(k))
			if pa != 2*k || pb != 2*k+1 || s.ents[pa].val != uint64(k)*2 {
				t.Fatalf("key %d at positions %d/%d, want %d/%d", k, pa, pb, 2*k, 2*k+1)
			}
		}
		if 2*len(s.ents) > len(s.index) {
			t.Fatalf("index of %d slots holds %d entries", len(s.index), len(s.ents))
		}
	}
	fill(1000)
	grown := len(s.index)
	s.reset()
	if pos, _ := s.find(a, 5); pos >= 0 || len(s.ents) != 0 {
		t.Fatal("reset left an entry behind")
	}
	fill(3)
	s.epoch = 1<<32 - 1
	s.reset() // wraps: the index is cleared
	if s.epoch != 1 || len(s.index) != grown {
		t.Fatalf("after wrap epoch = %d, index %d slots; want 1, %d", s.epoch, len(s.index), grown)
	}
	fill(20)
}

func TestWorkingSetReporting(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 256)
	_ = e.Run(func(tx *Txn) error {
		tx.Read(a, 0)
		tx.Read(a, 1) // same line
		tx.Read(a, 8) // second line
		tx.Write(a, 64, 1)
		if tx.ReadSetLines() != 2 {
			t.Errorf("ReadSetLines = %d, want 2", tx.ReadSetLines())
		}
		if tx.WriteSetLines() != 1 {
			t.Errorf("WriteSetLines = %d, want 1", tx.WriteSetLines())
		}
		return nil
	})
}

func BenchmarkHTMCommit4Lines(b *testing.B) {
	e := newEngine()
	a := memory.NewArena(0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Run(func(tx *Txn) error {
			for j := 0; j < 4; j++ {
				off := memory.Offset(j * memory.WordsPerLine)
				v := tx.Read(a, off)
				tx.Write(a, off, v+1)
			}
			return nil
		})
	}
}

func BenchmarkHTMReadOnly16Lines(b *testing.B) {
	e := newEngine()
	a := memory.NewArena(0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Run(func(tx *Txn) error {
			for j := 0; j < 16; j++ {
				tx.Read(a, memory.Offset(j*memory.WordsPerLine))
			}
			return nil
		})
	}
}
