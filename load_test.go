package drtm_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/memory"
	"drtm/internal/smallbank"
	"drtm/internal/socialgraph"
	"drtm/internal/tatp"
	"drtm/internal/tx"
)

// TestLoadBuildsSameShards: cluster.Load fills every copy of every partition
// at once, one goroutine per copy, and each workload's set-up must come out
// the same whatever the schedule. Each deployment is set up twice, on one
// goroutine (GOMAXPROCS 1: the copies one after another in partition-then-rank
// order) and at the default GOMAXPROCS, and every shard of every copy must
// match word for word — buckets, indirect buckets, entries, segment stamps —
// with the same B+ tree key → offset pairs and the same stamp counter.
func TestLoadBuildsSameShards(t *testing.T) {
	sbCfg := smallbank.DefaultConfig(3)
	// 2 000 accounts a node overflow a few dozen main buckets into the
	// indirect pool.
	sbCfg.AccountsPerNode = 2000
	sb := func(rt *tx.Runtime) error { _, err := smallbank.Setup(rt, sbCfg); return err }
	tatpCfg := tatp.Config{Nodes: 3, Subscribers: 600}
	tatpSetup := func(rt *tx.Runtime) error { _, err := tatp.Setup(rt, tatpCfg); return err }
	graphCfg := socialgraph.DefaultConfig(3)
	graph := func(rt *tx.Runtime) error { _, err := socialgraph.Setup(rt, graphCfg); return err }

	for _, tc := range []struct {
		name               string
		f                  int
		part               tx.Partitioner
		setup              func(*tx.Runtime) error
		unordered, ordered []int
	}{
		{"smallbank/f=0", 0, sbCfg.Partitioner(), sb, []int{smallbank.TableSavings, smallbank.TableChecking}, nil},
		{"smallbank/f=1", 1, sbCfg.Partitioner(), sb, []int{smallbank.TableSavings, smallbank.TableChecking}, nil},
		{"tatp/f=1", 1, tatpCfg.Partitioner(), tatpSetup, nil, []int{tatp.TableSubscriber,
			tatp.TableSpecialFacility, tatp.TableCallForwarding, tatp.TableSubNbrIndex}},
		{"socialgraph/f=1", 1, graphCfg.Partitioner(), graph, nil, []int{socialgraph.TableEdges}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(procs int) *cluster.Cluster {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := cluster.DefaultConfig(3, 1)
				cfg.ReplicationFactor = tc.f
				c := cluster.New(cfg)
				if err := tc.setup(tx.NewRuntime(c, tc.part)); err != nil {
					t.Fatal(err)
				}
				return c
			}
			serial, parallel := build(1), build(runtime.GOMAXPROCS(0))
			shards := 0
			for p := 0; p < serial.Nodes(); p++ {
				for _, node := range serial.Copies(nil, p) {
					for _, table := range tc.unordered {
						region := cluster.CopyRegion(p, table, node)
						a, b := serial.Node(node).Unordered(region), parallel.Node(node).Unordered(region)
						where := fmt.Sprintf("partition %d table %d on node %d", p, table, node)
						sameWords(t, where, a.Arena(), b.Arena())
						if sa, sb := a.StampNow(), b.StampNow(); sa != sb {
							t.Errorf("%s: stamp counter %d, loaded in parallel %d", where, sa, sb)
						}
						shards++
					}
					for _, table := range tc.ordered {
						region := cluster.CopyRegion(p, table, node)
						a, _ := serial.Node(node).OrderedRegion(region)
						b, _ := parallel.Node(node).OrderedRegion(region)
						where := fmt.Sprintf("partition %d table %d on node %d", p, table, node)
						sameWords(t, where, a.Arena(), b.Arena())
						type pair struct {
							key uint64
							off memory.Offset
						}
						var pa, pb []pair
						a.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool { pa = append(pa, pair{k, off}); return true })
						b.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool { pb = append(pb, pair{k, off}); return true })
						if !slices.Equal(pa, pb) {
							t.Errorf("%s: %d tree pairs, loaded in parallel %d, or the pairs differ", where, len(pa), len(pb))
						}
						if sa, sb := a.StampNow(), b.StampNow(); sa != sb {
							t.Errorf("%s: stamp counter %d, loaded in parallel %d", where, sa, sb)
						}
						shards++
					}
				}
			}
			if want := 3 * (1 + tc.f) * (len(tc.unordered) + len(tc.ordered)); shards != want {
				t.Fatalf("compared %d shards, want %d", shards, want)
			}
		})
	}
}

// sameWords fails the test at the first word two arenas disagree on.
func sameWords(t *testing.T, where string, a, b *memory.Arena) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: arena of %d words, loaded in parallel %d", where, a.Len(), b.Len())
	}
	wa, wb := make([]uint64, a.Len()), make([]uint64, b.Len())
	a.Read(wa, 0)
	b.Read(wb, 0)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("%s: word %d is %#x, loaded in parallel %#x", where, i, wa[i], wb[i])
		}
	}
}
