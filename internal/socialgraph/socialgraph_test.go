package socialgraph_test

import (
	"errors"
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
	return db, w
}

func TestSetupRingIsSymmetric(t *testing.T) {
	db, w := openGraph(t, 2, 1, drtm.Options{})
	defer db.Close()
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Get(socialgraph.TableEdges, socialgraph.EdgeKey(0, 1)); !ok || v[1] != 1 {
		t.Fatalf("seed edge 0->1 = %v,%v", v, ok)
	}
}

func TestBefriendUnfriendKeepSymmetry(t *testing.T) {
	db, w := openGraph(t, 2, 1, drtm.Options{})
	defer db.Close()
	cl := w.NewClient(db.Executor(0, 0), 1)
	for i := 0; i < 600; i++ {
		if err := cl.RunOne(); err != nil && !errors.Is(err, drtm.ErrRetry) {
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
	defer db.Close()
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
					if err != nil && !errors.Is(err, drtm.ErrRetry) && !errors.Is(err, drtm.ErrNodeDown) {
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

// Symmetry also survives a mid-run crash and hot failover: the promoted
// backup's replica shards must hold a symmetric edge set. Run with -race.
func TestSymmetryAcrossFailover(t *testing.T) {
	const (
		nodes   = 3
		workers = 2
		victim  = 2
	)
	db, w := openGraph(t, nodes, workers, drtm.Options{
		Durability:        true,
		ReplicationFactor: 1,
		FaultSeed:         13,
	})
	defer db.Close()

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations atomic.Value
	)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), int64(400+n*workers+wk))
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
					} else {
						err = cl.RunOne()
					}
					if err != nil && !errors.Is(err, drtm.ErrRetry) && !errors.Is(err, drtm.ErrNodeDown) {
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
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The MVCC snapshot checker lane (satellite): CheckSnapshotRO runs through
// PolicyMVCC — a friendship commit writes both edge directions, so a
// snapshot scan observing one direction without its reverse (or mismatched
// pair stamps) is half a multi-row commit — under verb faults and a
// mid-run crash + hot failover (ReplicationFactor=1), so promoted replica
// shards serve snapshot scans from their redo-maintained version chains.
// Run with -race.
func TestMVCCSnapshotAcrossFailover(t *testing.T) {
	const (
		nodes   = 3
		workers = 2
		victim  = 2
	)
	db, w := openGraph(t, nodes, workers, drtm.Options{
		Durability:        true,
		ReplicationFactor: 1,
		FaultSeed:         19,
		ReadPolicy:        drtm.PolicyMVCC,
	})
	defer db.Close()
	db.InjectNodeFaults(0, drtm.FaultRule{FailProb: 0.005})

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations atomic.Value
		checks     atomic.Int64
	)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), int64(600+n*workers+wk))
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
					if err != nil && !errors.Is(err, drtm.ErrRetry) && !errors.Is(err, drtm.ErrNodeDown) {
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
	if db.Stats().Count("mvcc.read") == 0 {
		t.Fatal("checker lane never resolved a snapshot read over the chains")
	}
	db.ClearFaults()
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}
