//go:build !race

package htm

import (
	"testing"

	"drtm/internal/memory"
)

// TestRegionAllocatesNothing: once a context is warm, a region allocates
// nothing, like the hardware it stands in for. Excluded under -race: the
// detector adds shadow allocations.
func TestRegionAllocatesNothing(t *testing.T) {
	e := newEngine()
	a := memory.NewArena(0, 4096)
	rmw4 := func() {
		_ = e.Run(func(tx *Txn) error {
			for j := 0; j < 4; j++ {
				off := memory.Offset(j * memory.WordsPerLine)
				tx.Write(a, off, tx.Read(a, off)+1)
			}
			return nil
		})
	}
	ro16 := func() {
		_ = e.Run(func(tx *Txn) error {
			for j := 0; j < 16; j++ {
				tx.Read(a, memory.Offset(j*memory.WordsPerLine))
			}
			return nil
		})
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"4-line read-modify-write", rmw4}, {"16-line read-only", ro16}} {
		c.fn() // warm the pooled context
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s region allocates %.0f objects, want 0", c.name, n)
		}
	}
}
