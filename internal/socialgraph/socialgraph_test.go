package socialgraph_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm"
	"drtm/internal/socialgraph"
)

func openGraph(t *testing.T, nodes, workers int, opts drtm.Options) (*drtm.DB, *socialgraph.Workload) {
	t.Helper()
	cfg := socialgraph.Config{Nodes: nodes, People: 12 * nodes}
	opts.Nodes = nodes
	opts.WorkersPerNode = workers
	db := drtm.MustOpen(opts, cfg.Partitioner())
	w, err := socialgraph.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	// Every test that uses the rig ends in the quiescence audit — no lock
	// leaked, nothing parked — and then closes the database.
	t.Cleanup(func() {
		if err := db.RT.AuditQuiescent(); err != nil {
			t.Error(err)
		}
		db.Close()
	})
	return db, w
}

func TestSetupRingIsSymmetric(t *testing.T) {
	db, w := openGraph(t, 2, 1, drtm.Options{})
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Get(socialgraph.TableEdges, socialgraph.EdgeKey(0, 1)); !ok || v[1] != 1 {
		t.Fatalf("seed edge 0->1 = %v,%v", v, ok)
	}
}

func TestBefriendUnfriendKeepSymmetry(t *testing.T) {
	db, w := openGraph(t, 2, 1, drtm.Options{})
	cl := w.NewClient(db.Executor(0, 0), 1)
	for i := 0; i < 600; i++ {
		if err := cl.RunOne(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	if cl.Counts["befriend"] == 0 || cl.Counts["unfriend"] == 0 || cl.Counts["check-snapshot"] == 0 {
		t.Fatalf("mix too narrow: %v", cl.Counts)
	}
}

// The social-graph snapshot checker (satellite): RO scans must never
// observe a half-applied friendship — every edge seen carries a live
// reverse edge with the same pair stamp, within one confirmed RO
// transaction, while writers befriend/unfriend concurrently across
// partitions. Run with -race.
func TestScanSnapshotUnderConcurrentWriters(t *testing.T) {
	const nodes, workers = 3, 2
	db, w := openGraph(t, nodes, workers, drtm.Options{FaultSeed: 3})
	db.InjectNodeFaults(1, drtm.FaultRule{FailProb: 0.01})

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations atomic.Value
		checks     atomic.Int64
	)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), int64(300+n*workers+wk))
			checker := wk == workers-1
			wg.Add(1)
			go func(cl *socialgraph.Client, checker bool) {
				defer wg.Done()
				person := uint64(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					var err error
					if checker {
						person = (person + 1) % uint64(w.Cfg.People)
						err = cl.CheckSnapshotRO(person)
						checks.Add(1)
					} else {
						err = cl.RunOne()
					}
					if err != nil && !errors.Is(err, drtm.ErrNodeDown) {
						violations.Store(err)
						return
					}
				}
			}(cl, checker)
		}
	}
	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != nil {
		t.Fatal(v.(error))
	}
	if checks.Load() == 0 {
		t.Fatal("checker lanes never ran")
	}
	db.ClearFaults()
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Symmetry also survives a mid-run crash and hot failover: the checkers'
// read-only scans never see one edge direction without its reverse, and the
// promoted backup's replica shards hold a symmetric edge set. The second case
// adds verb faults on a surviving node. Run with -race.
func TestSymmetryAcrossFailover(t *testing.T) {
	for _, c := range []struct {
		faultSeed, clientSeed int64
		faultProb             float64 // on node 0
	}{{13, 400, 0}, {19, 600, 0.005}} {
		t.Run(fmt.Sprintf("seed=%d", c.faultSeed), func(t *testing.T) {
			symmetryAcrossFailover(t, c.faultSeed, c.clientSeed, c.faultProb)
		})
	}
}

func symmetryAcrossFailover(t *testing.T, faultSeed, clientSeed int64, faultProb float64) {
	const (
		nodes   = 3
		workers = 2
		victim  = 2
	)
	db, w := openGraph(t, nodes, workers, drtm.Options{
		Durability:        true,
		ReplicationFactor: 1,
		FaultSeed:         faultSeed,
	})
	if faultProb > 0 {
		db.InjectNodeFaults(0, drtm.FaultRule{FailProb: faultProb})
	}

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations atomic.Value
		checks     atomic.Int64
	)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), clientSeed+int64(n*workers+wk))
			checker := wk == workers-1
			wg.Add(1)
			go func(n int, cl *socialgraph.Client, checker bool) {
				defer wg.Done()
				person := uint64(n)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !db.C.Node(n).Alive() {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					var err error
					if checker {
						person = (person + 1) % uint64(w.Cfg.People)
						err = cl.CheckSnapshotRO(person)
						checks.Add(1)
					} else {
						err = cl.RunOne()
					}
					if err != nil && !errors.Is(err, drtm.ErrNodeDown) {
						violations.Store(err)
						return
					}
				}
			}(n, cl, checker)
		}
	}

	time.Sleep(25 * time.Millisecond)
	db.Crash(victim)
	rep := db.Failover(victim)
	if !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	time.Sleep(25 * time.Millisecond)

	close(stop)
	wg.Wait()
	if v := violations.Load(); v != nil {
		t.Fatal(v.(error))
	}
	if checks.Load() == 0 {
		t.Fatal("checker lanes never ran")
	}
	db.ClearFaults()
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < db.C.Nodes(); n++ {
		if p := db.RT.PendingOps(n); p != 0 {
			t.Errorf("%d release-side steps parked for node %d after the failover", p, n)
		}
	}
	if err := db.RT.AuditQuiescent(); err != nil {
		t.Error(err)
	}
}
