package drtm_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm"
	"drtm/internal/cluster"
	"drtm/internal/nvram"
	"drtm/internal/rdma"
	"drtm/internal/smallbank"
)

// TestReplicationOptionValidation pins Open's ReplicationFactor checks:
// negative factors, factors that need more nodes than configured, and
// replication without durability are all rejected with errors (not panics).
func TestReplicationOptionValidation(t *testing.T) {
	part := func(table int, key uint64) int { return 0 }
	cases := []struct {
		name string
		o    drtm.Options
		ok   bool
	}{
		{"negative", drtm.Options{Nodes: 3, ReplicationFactor: -1, Durability: true}, false},
		{"f-equals-nodes", drtm.Options{Nodes: 3, ReplicationFactor: 3, Durability: true}, false},
		{"f-exceeds-nodes", drtm.Options{Nodes: 2, ReplicationFactor: 5, Durability: true}, false},
		{"single-node", drtm.Options{Nodes: 1, ReplicationFactor: 1, Durability: true}, false},
		{"defaulted-single-node", drtm.Options{ReplicationFactor: 1, Durability: true}, false},
		{"without-durability", drtm.Options{Nodes: 3, ReplicationFactor: 1}, true},
		{"valid", drtm.Options{Nodes: 3, ReplicationFactor: 1, Durability: true}, true},
		{"valid-f2", drtm.Options{Nodes: 3, ReplicationFactor: 2, Durability: true}, true},
		{"off", drtm.Options{Nodes: 2}, true},
	}
	for _, tc := range cases {
		db, err := drtm.Open(tc.o, part)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected Open error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Open accepted invalid options %+v", tc.name, tc.o)
		}
		if db != nil {
			if got := db.ReplicationFactor(); got != tc.o.ReplicationFactor {
				t.Errorf("%s: ReplicationFactor() = %d, want %d", tc.name, got, tc.o.ReplicationFactor)
			}
			db.Close()
		}
	}
}

// openReplicated builds a 3-node, f=1 deployment over a modulo partitioner
// with one hash table, pre-loaded with n records worth key*100 each.
func openReplicated(t *testing.T, n int, extra func(*drtm.Options)) *drtm.DB {
	t.Helper()
	o := drtm.Options{
		Nodes: 3, WorkersPerNode: 2,
		Durability:        true,
		ReplicationFactor: 1,
		FaultSeed:         7,
	}
	if extra != nil {
		extra(&o)
	}
	db := drtm.MustOpen(o, func(table int, key uint64) int { return int(key) % 3 })
	const accounts = 1
	db.CreateHashTable(accounts, 256, 1)
	for k := uint64(1); k <= uint64(n); k++ {
		if err := db.Load(accounts, k, []uint64{k * 100}); err != nil {
			t.Fatalf("load %d: %v", k, err)
		}
	}
	return db
}

// TestFailoverPromoteServesCommittedWrites is the end-to-end smoke test:
// commit transactions that update records homed on node 1 (appending their
// write-sets to node 2's redo logs), crash node 1, promote, and verify the
// promoted copy serves every committed update — including cross-partition

// nothingParked fails t unless no release-side step is parked for any node:
// under replication a step for a down node runs at once.
func nothingParked(t *testing.T, db *drtm.DB) {
	t.Helper()
	for n := 0; n < db.Nodes(); n++ {
		if p := db.RT.PendingOps(n); p != 0 {
			t.Errorf("%d release-side ops still parked for node %d", p, n)
		}
	}
}

// transactions' writes — through the view-routed read paths.
func TestFailoverPromoteServesCommittedWrites(t *testing.T) {
	const accounts = 1
	db := openReplicated(t, 30, nil)
	defer db.Close()
	base := db.Stats()

	// Writes from node 0: key 1 is homed on node 1, key 3 on node 0 —
	// a cross-partition transaction plus a single-partition one.
	e := db.Executor(0, 0)
	if err := e.Exec(func(tx *drtm.Tx) error {
		if err := tx.W(accounts, 1); err != nil {
			return err
		}
		if err := tx.W(accounts, 3); err != nil {
			return err
		}
		return tx.Execute(func(lc *drtm.Local) error {
			if err := lc.Write(accounts, 1, []uint64{111}); err != nil {
				return err
			}
			return lc.Write(accounts, 3, []uint64{333})
		})
	}); err != nil {
		t.Fatalf("cross-partition tx: %v", err)
	}
	// A write issued BY node 1 (the future victim) to its own partition.
	if err := db.Executor(1, 0).Exec(func(tx *drtm.Tx) error {
		if err := tx.W(accounts, 4); err != nil {
			return err
		}
		return tx.Execute(func(lc *drtm.Local) error {
			return lc.Write(accounts, 4, []uint64{444})
		})
	}); err != nil {
		t.Fatalf("local tx on victim: %v", err)
	}

	st := db.Stats().Delta(base)
	if st.Count("repl.log_append") == 0 {
		t.Fatal("no log-append WRs recorded for committed write-sets")
	}
	if st.Count("repl.backup_bytes") == 0 {
		t.Fatal("no backup bytes recorded")
	}

	db.EnableTracing(64)
	db.Crash(1)
	rep := db.Failover(1)
	if !rep.Promoted {
		t.Fatalf("Failover(1) did not promote: %+v", rep)
	}
	if rep.NewOwner != 2 {
		t.Fatalf("promoted owner = %d, want 2 (ring successor)", rep.NewOwner)
	}
	if db.PartitionOwner(1) != 2 {
		t.Fatalf("PartitionOwner(1) = %d after promotion, want 2", db.PartitionOwner(1))
	}

	// The promoted copy must serve every committed update.
	for _, want := range []struct {
		key uint64
		val uint64
	}{{1, 111}, {4, 444}, {7, 700}} {
		got, ok := db.Get(accounts, want.key)
		if !ok || got[0] != want.val {
			t.Errorf("Get(%d) after failover = %v %v, want [%d]", want.key, got, ok, want.val)
		}
	}
	// The healthy partition's write is untouched.
	if got, ok := db.Get(accounts, 3); !ok || got[0] != 333 {
		t.Errorf("Get(3) = %v %v, want [333]", got, ok)
	}

	// Transactions keep running against the promoted partition, from both a
	// survivor's read-write path and the read-only path.
	if err := e.Exec(func(tx *drtm.Tx) error {
		if err := tx.W(accounts, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *drtm.Local) error {
			v, err := lc.Read(accounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(accounts, 1, []uint64{v[0] + 1})
		})
	}); err != nil {
		t.Fatalf("post-failover tx: %v", err)
	}
	if err := e.ExecRO(func(ro *drtm.RO) error {
		v, err := ro.Read(accounts, 1)
		if err != nil {
			return err
		}
		if v[0] != 112 {
			t.Errorf("post-failover RO read = %d, want 112", v[0])
		}
		return nil
	}); err != nil {
		t.Fatalf("post-failover RO: %v", err)
	}

	st = db.Stats().Delta(base)
	if st.Count("repl.failover") != 1 {
		t.Errorf("repl.failover = %d, want 1", st.Count("repl.failover"))
	}
	if st.Count("repl.promote_ns") <= 0 {
		t.Error("PromoteNanos not accounted")
	}
	if !strings.Contains(st.String(), "repl:") {
		t.Error("Stats.String() missing the repl summary line")
	}
	found := false
	for _, ev := range db.DrainTrace() {
		if ev.Kind == drtm.TraceFailover && ev.Node == 1 && ev.Worker == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no TraceFailover event in the trace ring")
	}
	if err := db.RT.AuditQuiescent(); err != nil {
		t.Error(err)
	}
	nothingParked(t, db)
}

// TestFailoverIdempotence pins the promote protocol's recovery-idempotence:
// a second Failover for the same crash — a racing coordinator across
// incarnations — observes the view already moved and does nothing.
func TestFailoverIdempotence(t *testing.T) {
	db := openReplicated(t, 12, nil)
	defer db.Close()

	db.Crash(1)
	first := db.Failover(1)
	if !first.Promoted {
		t.Fatalf("first Failover did not promote: %+v", first)
	}
	second := db.Failover(1)
	if second.Promoted {
		t.Fatalf("second Failover promoted again: %+v", second)
	}
	if second.RedoRecords != 0 || second.Unlocked != 0 {
		t.Errorf("second Failover did work: %+v", second)
	}
	if got := db.PartitionOwner(1); got != first.NewOwner {
		t.Errorf("owner changed across repeated Failover: %d vs %d", got, first.NewOwner)
	}
	if st := db.Stats(); st.Count("repl.failover") != 1 {
		t.Errorf("repl.failover = %d after repeated calls, want 1", st.Count("repl.failover"))
	}
	nothingParked(t, db)
}

// TestZombieAppendFenced pins the view-epoch fence: after a promotion, a
// redo record stamped with the pre-promotion epoch — what a zombie
// ex-primary would append — is rejected by the backup's log sink with
// ErrFenced and counted, and the promoted copy never sees the write.
func TestZombieAppendFenced(t *testing.T) {
	const accounts = 1
	db := openReplicated(t, 12, nil)
	defer db.Close()

	staleEpoch := cluster.ViewEpoch(db.C.View(1)) // observed pre-promotion
	db.Crash(1)
	if rep := db.Failover(1); !rep.Promoted {
		t.Fatalf("Failover did not promote: %+v", rep)
	}

	// A zombie's late append: key 4 is homed on partition 1, the record is
	// stamped with the old epoch, and the sink lives on backup node 2.
	rec := nvram.EncodeRedo(nil, 42, []nvram.RedoUpdate{{
		Part: 1, Epoch: staleEpoch, Table: accounts, Key: 4,
		Version: 99, Val: []uint64{666},
	}})
	err := db.C.Worker(0, 0).QP.TryLogAppend(2, cluster.RedoLogRegion(0, 0), rec)
	if !errors.Is(err, rdma.ErrFenced) {
		t.Fatalf("stale-epoch append error = %v, want ErrFenced", err)
	}
	if st := db.Stats(); st.Count("repl.fence_reject") == 0 {
		t.Error("fence rejection not counted")
	}
	if got, ok := db.Get(accounts, 4); !ok || got[0] != 400 {
		t.Errorf("fenced write leaked: Get(4) = %v %v, want [400]", got, ok)
	}

	// A current-epoch append still lands.
	rec = nvram.EncodeRedo(nil, 43, []nvram.RedoUpdate{{
		Part: 0, Epoch: cluster.ViewEpoch(db.C.View(0)), Table: accounts,
		Key: 3, Version: 99, Val: []uint64{777},
	}})
	if err := db.C.Worker(0, 0).QP.TryLogAppend(1+0, cluster.RedoLogRegion(0, 0), rec); err != nil {
		// Node 1 (partition 0's backup) is crashed in this scenario, so the
		// append may fail unreachable — use node 0's other live backup
		// relationship instead: partition 2 is backed by node 0.
		rec = nvram.EncodeRedo(nil, 44, []nvram.RedoUpdate{{
			Part: 2, Epoch: cluster.ViewEpoch(db.C.View(2)), Table: accounts,
			Key: 5, Version: 99, Val: []uint64{888},
		}})
		if err := db.C.Worker(2, 0).QP.TryLogAppend(0, cluster.RedoLogRegion(2, 0), rec); err != nil {
			t.Fatalf("current-epoch append rejected: %v", err)
		}
	}
	nothingParked(t, db)
}

// TestRedoDrainDoesNotResurrectDeletedKeys pins the ordering between the
// redo stream and shipped deletes. Deletes are applied immediately to the
// primary and every replica shard and never appear in the redo stream, so a
// backup's ring can still hold an older write record for a deleted key when
// it is drained (by an append or by failover). The drain must recognize such
// records as stale — both when the key is still gone (never re-insert it)
// and when it was re-inserted since (never clobber the fresh value, whose
// version restarted at 0).
func TestRedoDrainDoesNotResurrectDeletedKeys(t *testing.T) {
	const accounts = 1
	db := openReplicated(t, 12, nil)
	defer db.Close()

	e := db.Executor(0, 0)
	write := func(key, val uint64) {
		t.Helper()
		if err := e.Exec(func(tx *drtm.Tx) error {
			if err := tx.W(accounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *drtm.Local) error {
				return lc.Write(accounts, key, []uint64{val})
			})
		}); err != nil {
			t.Fatalf("write %d: %v", key, err)
		}
	}

	// Keys 4 and 7 are homed on partition 1, backed up by node 2. The writes
	// leave redo records for both keys in node 2's rings.
	write(4, 444)
	write(7, 777)
	// Delete both (applied to the primary and mirrored to the replica), then
	// re-insert key 7 with a fresh value: its version restarts at 0, so only
	// the delete-generation fence can tell the old record is stale.
	if err := e.Exec(func(tx *drtm.Tx) error {
		return tx.Execute(func(lc *drtm.Local) error {
			lc.Delete(accounts, 4)
			lc.Delete(accounts, 7)
			return nil
		})
	}); err != nil {
		t.Fatalf("delete tx: %v", err)
	}
	if err := e.Exec(func(tx *drtm.Tx) error {
		return tx.Execute(func(lc *drtm.Local) error {
			lc.Insert(accounts, 7, []uint64{70})
			return nil
		})
	}); err != nil {
		t.Fatalf("reinsert tx: %v", err)
	}

	// Promote node 2: the failover drain replays every ring it hosts,
	// including the stale write records for keys 4 and 7.
	db.Crash(1)
	if rep := db.Failover(1); !rep.Promoted {
		t.Fatalf("Failover did not promote: %+v", rep)
	}
	if got, ok := db.Get(accounts, 4); ok {
		t.Errorf("deleted key 4 resurrected by redo drain: %v", got)
	}
	if got, ok := db.Get(accounts, 7); !ok || got[0] != 70 {
		t.Errorf("Get(7) after failover = %v %v, want [70] (stale pre-delete redo value must not win)", got, ok)
	}
	// An untouched key on the same partition still serves its seeded value.
	if got, ok := db.Get(accounts, 1); !ok || got[0] != 100 {
		t.Errorf("Get(1) after failover = %v %v, want [100]", got, ok)
	}
	nothingParked(t, db)
}

// TestFailoverSmallBankConservation is the replication chaos test: a
// durable, replicated SmallBank cluster with lease-based failure detection
// runs live traffic while a primary is killed. The coordinator must promote
// the backup (hot failover — the primary stays dead), survivors keep
// committing against the promoted partition, and at the end the total money
// — audited through the view-routed read path — must equal the initial
// total plus committed net deposits: zero committed transactions lost.
func TestFailoverSmallBankConservation(t *testing.T) {
	const (
		nodes   = 3
		workers = 2
		victim  = 1
	)
	cfg := smallbank.Config{
		Nodes:           nodes,
		AccountsPerNode: 80,
		HotAccounts:     8,
		HotProb:         0.25,
		DistProb:        0.4,
		InitialBalance:  1000,
	}
	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		Durability:        true,
		ReplicationFactor: 1,
		FailureDetection:  true,
		FaultSeed:         42,
	}, cfg.Partitioner())
	defer db.Close()

	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := w.TotalBalance()
	base := db.Stats()

	var (
		stop          = make(chan struct{})
		outage        atomic.Bool
		outageCommits atomic.Int64
		wg            sync.WaitGroup
	)
	clients := make([]*smallbank.Client, 0, nodes*workers)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), int64(100+n*workers+wk))
			clients = append(clients, cl)
			wg.Add(1)
			go func(n int, cl *smallbank.Client) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !db.C.Node(n).Alive() {
						// The crashed machine stays dead under hot failover;
						// its clients fail over at the workload level (here:
						// they idle out).
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if _, err := cl.RunOne(); err == nil {
						if outage.Load() {
							outageCommits.Add(1)
						}
					} else if !errors.Is(err, drtm.ErrNodeDown) {
						t.Errorf("unexpected transaction error: %v", err)
						return
					}
				}
			}(n, cl)
		}
	}

	time.Sleep(20 * time.Millisecond) // warm traffic, build redo tails
	outage.Store(true)
	db.Crash(victim)
	deadline := time.Now().Add(10 * time.Second)
	for db.PartitionOwner(victim) == victim && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if db.PartitionOwner(victim) == victim {
		t.Fatal("crash was never detected and promoted")
	}
	outage.Store(false)
	if db.C.Node(victim).Alive() {
		t.Error("victim revived: hot failover must keep the primary dead")
	}
	time.Sleep(20 * time.Millisecond) // traffic against the promoted view
	close(stop)
	wg.Wait()

	var net int64
	for _, cl := range clients {
		net += cl.NetDeposits
	}
	final := w.TotalBalance()
	if int64(final) != int64(initial)+net {
		t.Errorf("money not conserved across failover: final %d, want %d (initial %d %+d net deposits)",
			final, int64(initial)+net, initial, net)
	}
	if outageCommits.Load() == 0 {
		t.Error("survivors made no commits around the failover window")
	}

	st := db.Stats().Delta(base)
	if st.Count("fault.detect") == 0 {
		t.Error("no crash was detected via lease expiry")
	}
	if st.Count("repl.failover") == 0 {
		t.Error("no hot-failover promotion ran")
	}
	if st.Count("recovery.run") != 0 {
		t.Error("full NVRAM recovery ran despite replication (hot failover should replace it)")
	}
	if st.Count("repl.log_append") == 0 {
		t.Error("no log-append WRs recorded")
	}
	if st.Count("repl.promote_ns") == 0 {
		t.Error("promotion time not accounted")
	}
	if err := db.RT.AuditQuiescent(); err != nil {
		t.Error(err)
	}
	nothingParked(t, db)
}
