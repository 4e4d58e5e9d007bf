package tx

import (
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
)

// TestCopyRule: the host-side structural ops reach a partition's copies
// through one rule (lockCopies). Each op runs on the copy serving partition 1
// of an ordered table — at f = 0, on the f = 1 home primary, and on the backup
// promoted after the home's crash — and afterwards the copies hold the key
// exactly where the rule says: the serving copy, and its backups only when it
// is the home primary still owning the partition. Under replication the op
// holds the partition's redo lock and releases it, and a delete or removal
// bumps the key's delete generation. A removal's freed slot, left
// write-locked, passes the quiescence audit. The f = 1 home primary's deferred
// insert, deferred delete and removal are TestDeferredStoreOpsSurviveFailover's
// and TestMirroredRemovalLeavesNoReplicaEntry's.
func TestCopyRule(t *testing.T) {
	const part = 1
	key := orderedKey(part, 7)
	val := []uint64{70, 7}
	ops := []struct {
		name   string
		seed   func(o *kvs.Ordered) error // what every copy holds first
		run    func(t *testing.T, rt *Runtime, n *cluster.Node, region int)
		holds  bool // the copies the op reaches hold the key after it
		delete bool // the op bumps the key's delete generation
	}{
		{"deferred insert", nil, func(t *testing.T, rt *Runtime, n *cluster.Node, _ int) {
			if _, err := rt.execStoreOp(n, storeOpMsg{Insert: true, Table: tblOrders, Key: key, Val: val}, nil); err != nil {
				t.Error(err)
			}
		}, true, false},
		{"deferred delete", func(o *kvs.Ordered) error { return o.Insert(key, val) },
			func(t *testing.T, rt *Runtime, n *cluster.Node, _ int) {
				if _, err := rt.execStoreOp(n, storeOpMsg{Table: tblOrders, Key: key}, nil); err != nil {
					t.Error(err)
				}
			}, false, true},
		{"EnsureDead", nil, func(t *testing.T, rt *Runtime, n *cluster.Node, region int) {
			if _, _, err := rt.execEnsureEntry(n, region, tblOrders, part, key, clock.Init); err != nil {
				t.Error(err)
			}
		}, true, false},
		{"removal", func(o *kvs.Ordered) error { _, _, err := o.EnsureDead(key, clock.Init); return err },
			func(t *testing.T, rt *Runtime, n *cluster.Node, region int) {
				o := n.Ordered(region)
				off, _ := o.Lookup(key)
				rt.execRemoveDead(n, removalOp{node: n.ID, region: region, table: tblOrders, part: part,
					key: key, deadIncVer: o.Arena().LoadWord(kvs.IncVerOffset(off))})
			}, false, true},
	}
	places := []struct {
		name    string
		f       int
		promote bool
	}{{"f=0", 0, false}, {"f=1 home", 1, false}, {"f=1 promoted", 1, true}}

	for _, op := range ops {
		for _, pl := range places {
			if pl.f == 1 && !pl.promote && op.name != "EnsureDead" {
				continue
			}
			t.Run(op.name+"/"+pl.name, func(t *testing.T) {
				rt, stop := newOrderedRig(t, 3, 1, func(c *cluster.Config) { c.ReplicationFactor = pl.f })
				defer stop()
				c := rt.C
				copies := c.Copies(nil, part)
				if op.seed != nil {
					for _, node := range copies {
						if err := op.seed(c.Node(node).Ordered(cluster.CopyRegion(part, tblOrders, node))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if pl.promote {
					c.Crash(part)
					if rep := rt.Failover(part); !rep.Promoted {
						t.Fatalf("failover did not promote: %+v", rep)
					}
				}
				node, region := c.Serving(part, tblOrders)
				sh := &rt.redoShards[part]
				gen := sh.delGen[delKey{tblOrders, key}]
				run := func() { op.run(t, rt, c.Node(node), region) }
				if pl.f == 0 {
					run()
				} else {
					// Under replication the op waits for the partition's redo lock:
					// it cannot finish while the test holds it. (A wait that ends
					// too early to see a lockless op finish passes; it never fails
					// an op that locks.)
					sh.mu.Lock()
					done := make(chan struct{})
					go func() { run(); close(done) }()
					select {
					case <-done:
						t.Fatal("the op ran while the partition's redo lock was held")
					case <-time.After(20 * time.Millisecond):
					}
					sh.mu.Unlock()
					<-done
				}
				if !sh.mu.TryLock() {
					t.Fatal("the op left the partition's redo lock held")
				}
				sh.mu.Unlock()

				for _, n := range copies {
					want := op.holds
					if n != node && pl.promote {
						want = op.seed != nil // the dead home: the op never reaches it
					}
					if _, got := c.Node(n).Ordered(cluster.CopyRegion(part, tblOrders, n)).Lookup(key); got != want {
						t.Errorf("copy on node %d holds the key: %v, want %v", n, got, want)
					}
				}
				wantGen := gen
				if op.delete && pl.f > 0 {
					wantGen++
				}
				if got := sh.delGen[delKey{tblOrders, key}]; got != wantGen {
					t.Errorf("delete generation %d, want %d", got, wantGen)
				}
				if err := rt.AuditQuiescent(); err != nil {
					t.Errorf("audit: %v", err)
				}
			})
		}
	}
}
