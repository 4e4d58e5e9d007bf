package drtm_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm"
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
	const (
		nodes   = 3
		workers = 2
		cycles  = 4
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
		Durability:       true,
		FailureDetection: true,
		FaultSeed:        42,
	}, cfg.Partitioner())
	defer db.Close()

	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := w.TotalBalance()
	// A pinch of transient verb faults so the bounded-retry path runs too.
	db.InjectLinkFaults(1, 0, drtm.FaultRule{FailProb: 0.01})
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
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if _, err := cl.RunOne(); err == nil {
						if outage.Load() {
							outageCommits.Add(1)
						}
					} else if err != nil && !errors.Is(err, drtm.ErrNodeDown) {
						t.Errorf("unexpected transaction error: %v", err)
						return
					}
				}
			}(n, cl)
		}
	}

	for i := 0; i < cycles; i++ {
		time.Sleep(15 * time.Millisecond)
		victim := 1 + i%2
		outage.Store(true)
		db.Crash(victim)
		deadline := time.Now().Add(10 * time.Second)
		for !db.C.Node(victim).Alive() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !db.C.Node(victim).Alive() {
			t.Fatalf("cycle %d: node %d was never detected and revived", i, victim)
		}
		outage.Store(false)
	}
	close(stop)
	wg.Wait()

	var net int64
	for _, cl := range clients {
		net += cl.NetDeposits
	}
	final := w.TotalBalance()
	if int64(final) != int64(initial)+net {
		t.Errorf("money not conserved: final %d, want %d (initial %d %+d net deposits)",
			final, int64(initial)+net, initial, net)
	}
	if outageCommits.Load() == 0 {
		t.Error("survivors made no commits while a peer was down")
	}

	st := db.Stats().Delta(base)
	if st.Count("fault.detect") == 0 {
		t.Error("no crash was detected via lease expiry")
	}
	if st.Count("recovery.run") == 0 {
		t.Error("no recovery run replayed logs")
	}
	if st.Count("recovery.ns") == 0 {
		t.Error("recovery time not accounted")
	}
	if st.Count("fault.verb") == 0 {
		t.Error("no verb faults recorded despite crashes and injected faults")
	}
	if st.Count("tx.node_down") == 0 {
		t.Error("no transaction ever aborted with ErrNodeDown")
	}
	if !strings.Contains(st.String(), "fault:") {
		t.Error("Stats.String() missing the fault summary line")
	}
}
