//go:build !race

package smallbank

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/memory"
	"drtm/internal/tx"
)

// TestSetupAtBenchmarkScale: at the default configuration — the repo
// benchmark's — an account is its row, one cache line (key, incarnation|version,
// state and the balance, padded to 8 words), with no version chain; and the
// indirect-bucket pool holds the overflow of 200 000 accounts per node, the
// benchmark's population — a bucket short is a kvs.ErrNoSlot out of Setup.
// (Excluded under -race, where its 800 000 inserts take some 17 s and race
// nobody.)
func TestSetupAtBenchmarkScale(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(2, 1))
	cfg := DefaultConfig(2)
	cfg.AccountsPerNode = 200_000
	rt := tx.NewRuntime(c, cfg.Partitioner())
	if _, err := Setup(rt, cfg); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		for _, table := range []int{TableSavings, TableChecking} {
			shard := rt.C.Node(n).Unordered(table)
			if got := shard.EntryWords(); got != memory.WordsPerLine {
				t.Errorf("table %d's entries on node %d are %d words, want one line (%d)",
					table, n, got, memory.WordsPerLine)
			}
			if got := shard.Len(); got != cfg.AccountsPerNode {
				t.Fatalf("table %d rows on node %d = %d", table, n, got)
			}
		}
	}
}
