package htm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drtm/internal/memory"
)

// TestQuickSequentialEquivalence: running a random batch of transactions
// one at a time through the engine must produce exactly the state of
// applying them directly — the engine adds isolation, not semantics. The ops
// spread over two arenas that share offsets (and IDs), hit the same word and
// different words of one line repeatedly, and touch enough distinct lines per
// transaction for the position indexes to grow several times.
func TestQuickSequentialEquivalence(t *testing.T) {
	type op struct {
		Read  bool
		Arena bool
		Cell  uint8
		Word  uint8
		Val   uint16
	}
	const cells = 48
	count := func(lines [2][cells]bool) (n int) {
		for _, arena := range lines {
			for _, touched := range arena {
				if touched {
					n++
				}
			}
		}
		return n
	}
	f := func(txns [][]op) bool {
		e := NewEngine(Config{})
		arenas := [2]*memory.Arena{
			memory.NewArena(0, cells*memory.WordsPerLine),
			memory.NewArena(0, cells*memory.WordsPerLine),
		}
		var model [2][cells * memory.WordsPerLine]uint64

		for _, ops := range txns {
			shadow := model
			// What the working set must hold: a line per distinct line written,
			// and per distinct line read other than through the write buffer.
			var rlines, wlines [2][cells]bool
			var wrote [2][cells * memory.WordsPerLine]bool
			err := e.Run(func(tx *Txn) error {
				for _, o := range ops {
					ai := 0
					if o.Arena {
						ai = 1
					}
					c := int(o.Cell) % cells
					w := c*memory.WordsPerLine + int(o.Word)%memory.WordsPerLine
					if o.Read {
						if !wrote[ai][w] {
							rlines[ai][c] = true
						}
						if got := tx.Read(arenas[ai], memory.Offset(w)); got != shadow[ai][w] {
							t.Errorf("read arena %d word %d = %d, shadow %d", ai, w, got, shadow[ai][w])
						}
					} else {
						wlines[ai][c], wrote[ai][w] = true, true
						tx.Write(arenas[ai], memory.Offset(w), uint64(o.Val))
						shadow[ai][w] = uint64(o.Val)
					}
				}
				if nr, nw := count(rlines), count(wlines); tx.ReadSetLines() != nr || tx.WriteSetLines() != nw {
					t.Errorf("working set %d read / %d write lines, want %d / %d",
						tx.ReadSetLines(), tx.WriteSetLines(), nr, nw)
				}
				return nil
			})
			if err != nil {
				return false // no concurrency: aborts must not happen
			}
			model = shadow
		}
		for ai, a := range arenas {
			for w := range model[ai] {
				if a.LoadWord(memory.Offset(w)) != model[ai][w] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAtomicityUnderConcurrency: pairs of transactions writing sealed
// patterns (all cells equal) never publish a mixed pattern.
func TestQuickAtomicityUnderConcurrency(t *testing.T) {
	const cells = 4
	e := NewEngine(Config{})
	a := memory.NewArena(0, cells*memory.WordsPerLine)

	done := make(chan bool, 2)
	writer := func(val uint64, n int) {
		ok := true
		for i := 0; i < n; i++ {
			err := e.Run(func(tx *Txn) error {
				for c := 0; c < cells; c++ {
					tx.Write(a, memory.Offset(c*memory.WordsPerLine), val)
				}
				return nil
			})
			_ = err // aborts fine; atomicity is what matters
		}
		done <- ok
	}
	go writer(1111, 300)
	go writer(2222, 300)

	for i := 0; i < 2000; i++ {
		v0 := a.LoadWord(0)
		sealed := true
		err := e.Run(func(tx *Txn) error {
			first := tx.Read(a, 0)
			for c := 1; c < cells; c++ {
				if tx.Read(a, memory.Offset(c*memory.WordsPerLine)) != first {
					sealed = false
				}
			}
			return nil
		})
		if err == nil && !sealed {
			t.Fatalf("observed torn transactional state (around %d)", v0)
		}
	}
	<-done
	<-done
}
