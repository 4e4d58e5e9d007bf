//go:build !race

package smallbank

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/tx"
)

// TestSetupAtBenchmarkScale: the indirect-bucket pool holds the overflow of
// 200 000 accounts per node, the repo benchmark's population — a bucket short
// is a kvs.ErrNoSlot out of Setup. Version chains are off: they do not change
// which bucket a key lands in, only how much memory the test takes. (Excluded
// under -race, where its 800 000 inserts take some 17 s and race nobody.)
func TestSetupAtBenchmarkScale(t *testing.T) {
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.MVCCDepth = 0
	c := cluster.New(ccfg)
	cfg := DefaultConfig(2)
	cfg.AccountsPerNode = 200_000
	rt := tx.NewRuntime(c, cfg.Partitioner())
	if _, err := Setup(rt, cfg); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if got := rt.C.Node(n).Unordered(TableChecking).Len(); got != cfg.AccountsPerNode {
			t.Fatalf("checking rows on node %d = %d", n, got)
		}
	}
}
