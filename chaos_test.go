package drtm_test

import (
	"strings"
	"testing"
	"time"

	"drtm"
	"drtm/internal/crashrig"
	"drtm/internal/smallbank"
)

// TestChaosSmallBankConservation is the public-API crash-consistency test:
// a durable SmallBank cluster with lease-based failure detection runs live
// traffic while nodes are crashed repeatedly. Every crash must be detected
// via lease expiry (no oracle), recovered online by the elected
// coordinator, and the victim revived — and at the end the total money in
// the bank must equal the initial total plus the committed net deposits:
// no committed transaction may be lost, no aborted one half-applied.
func TestChaosSmallBankConservation(t *testing.T) {
	const cycles = 4
	i := 0
	st := bankUnderCrashes(t, 0, func(db *drtm.DB) {
		// A pinch of transient verb faults so the bounded-retry path runs too.
		db.InjectLinkFaults(1, 0, drtm.FaultRule{FailProb: 0.01})
	}, func(db *drtm.DB, run *crashrig.Run) {
		// A victim whose workers hold no log record when it dies gives
		// Recover nothing to replay: the cycles go on, up to 4x, until a
		// Recover has.
		for ; i < cycles || (i < 4*cycles && db.Stats().Count("recovery.run") == 0); i++ {
			if run.Phase(15*time.Millisecond, 500) != nil {
				return
			}
			victim := 1 + i%2
			if !run.Crash(victim, db.C.Node(victim).Alive) {
				t.Fatalf("cycle %d: node %d was never detected and revived", i, victim)
			}
		}
	})
	t.Logf("%d crash cycles", i)
	for _, c := range []struct{ name, missing string }{
		{"fault.detect", "no crash was detected via lease expiry"},
		{"recovery.run", "no recovery run replayed logs"},
		{"recovery.ns", "recovery time not accounted"},
		{"fault.verb", "no verb faults recorded despite crashes and injected faults"},
		{"tx.node_down", "no transaction ever aborted with ErrNodeDown"},
	} {
		if st.Count(c.name) == 0 {
			t.Error(c.missing)
		}
	}
	if !strings.Contains(st.String(), "fault:") {
		t.Error("Stats.String() missing the fault summary line")
	}
}

// bankUnderCrashes loads a SmallBank bank on a durable three-node cluster of
// two workers a node, replication factor f, lease-based failure detection and
// fault seed 42; lets faults, if any, inject its fault rules; and runs one
// client per worker on the crash rig while drive crashes and repairs
// machines. It fails the test on a client error other than ErrNodeDown, if
// the survivors committed nothing during an outage, or if the final total
// money is not the initial one plus the committed net deposits: no committed
// transaction may be lost, no aborted one half-applied. It returns the
// counters' delta over the run.
func bankUnderCrashes(t *testing.T, f int, faults func(*drtm.DB), drive func(*drtm.DB, *crashrig.Run)) drtm.Stats {
	t.Helper()
	const nodes, workers = 3, 2
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
		ReplicationFactor: f,
		FailureDetection:  true,
		FaultSeed:         42,
	}, cfg.Partitioner())
	defer db.Close()
	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := int64(w.TotalBalance())
	if faults != nil {
		faults(db)
	}
	base := db.Stats()

	var clients []*smallbank.Client
	run := crashrig.Start(db, func(n, wk int) func() error {
		cl := w.NewClient(db.Executor(n, wk), int64(100+n*workers+wk))
		clients = append(clients, cl)
		return func() error { _, err := cl.RunOne(); return err }
	})
	defer run.Stop()
	drive(db, run)
	counts, err := run.Stop()
	if err != nil {
		t.Fatalf("unexpected transaction error: %v", err)
	}
	t.Logf("%+v", counts)

	var net int64
	for _, cl := range clients {
		net += cl.NetDeposits
	}
	if final := int64(w.TotalBalance()); final != initial+net {
		t.Errorf("money not conserved: final %d, want %d (initial %d %+d net deposits)", final, initial+net, initial, net)
	}
	if counts.OutageCommits == 0 {
		t.Error("survivors made no commits while a peer was down")
	}
	if err := db.RT.AuditQuiescent(); err != nil {
		t.Error(err)
	}
	return db.Stats().Delta(base)
}
