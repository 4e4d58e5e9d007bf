package smallbank

import (
	"runtime"
	"sync"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/tx"
)

func smallCfg(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.AccountsPerNode = 200
	cfg.HotAccounts = 20
	cfg.DistProb = 0.2
	return cfg
}

func newWorkload(t testing.TB, nodes, workers int, mut func(*cluster.Config)) (*Workload, *tx.Runtime, func()) {
	t.Helper()
	ccfg := cluster.DefaultConfig(nodes, workers)
	ccfg.LeaseMicros = 5_000
	ccfg.ROLeaseMicros = 10_000
	if mut != nil {
		mut(&ccfg)
	}
	c := cluster.New(ccfg)
	c.Start()
	cfg := smallCfg(nodes)
	rt := tx.NewRuntime(c, cfg.Partitioner())
	w, err := Setup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every test that uses the rig ends in the quiescence audit: no lock
	// leaked, nothing parked.
	return w, rt, func() {
		if err := rt.AuditQuiescent(); err != nil {
			t.Error(err)
		}
		c.Stop()
	}
}

func TestSetupPopulates(t *testing.T) {
	w, rt, stop := newWorkload(t, 2, 1, nil)
	defer stop()
	if got := rt.C.Node(0).Unordered(TableSavings).Len(); got != 200 {
		t.Fatalf("savings rows on node 0 = %d", got)
	}
	want := uint64(2 * 200 * 2 * 10_000) // nodes * accts * (sav+chk) * balance
	if got := w.TotalBalance(); got != want {
		t.Fatalf("TotalBalance = %d, want %d", got, want)
	}
}

func TestNodeOfPartitioning(t *testing.T) {
	cfg := smallCfg(3)
	if cfg.NodeOf(1) != 0 || cfg.NodeOf(200) != 0 || cfg.NodeOf(201) != 1 ||
		cfg.NodeOf(401) != 2 || cfg.NodeOf(600) != 2 {
		t.Fatalf("NodeOf boundaries wrong: %d %d %d %d %d",
			cfg.NodeOf(1), cfg.NodeOf(200), cfg.NodeOf(201), cfg.NodeOf(401), cfg.NodeOf(600))
	}
}

func TestSendPaymentMovesMoney(t *testing.T) {
	w, rt, stop := newWorkload(t, 2, 1, nil)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1)
	// Local payment.
	if err := cl.SendPayment(1, 2, 500); err != nil {
		t.Fatal(err)
	}
	// Distributed payment: account 201 lives on node 1.
	if err := cl.SendPayment(1, 201, 500); err != nil {
		t.Fatal(err)
	}
	v1, _ := rt.C.Node(0).Unordered(TableChecking).Get(1)
	v2, _ := rt.C.Node(0).Unordered(TableChecking).Get(2)
	v3, _ := rt.C.Node(1).Unordered(TableChecking).Get(201)
	if v1[0] != 9000 || v2[0] != 10500 || v3[0] != 10500 {
		t.Fatalf("balances = %d %d %d", v1[0], v2[0], v3[0])
	}
}

func TestBalanceReadsBoth(t *testing.T) {
	w, rt, stop := newWorkload(t, 1, 1, nil)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1)
	got, err := cl.Balance(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20_000 {
		t.Fatalf("Balance = %d", got)
	}
}

func TestAmalgamate(t *testing.T) {
	w, rt, stop := newWorkload(t, 2, 1, nil)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1)
	if err := cl.Amalgamate(1, 201); err != nil { // cross-node
		t.Fatal(err)
	}
	s, _ := rt.C.Node(0).Unordered(TableSavings).Get(1)
	k, _ := rt.C.Node(0).Unordered(TableChecking).Get(1)
	b, _ := rt.C.Node(1).Unordered(TableChecking).Get(201)
	if s[0] != 0 || k[0] != 0 || b[0] != 30_000 {
		t.Fatalf("after amalgamate: %d %d %d", s[0], k[0], b[0])
	}
}

func TestWithdrawClampsAtZero(t *testing.T) {
	w, rt, stop := newWorkload(t, 1, 1, nil)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1)
	if err := cl.WithdrawChecking(1, 50_000); err != nil {
		t.Fatal(err)
	}
	v, _ := rt.C.Node(0).Unordered(TableChecking).Get(1)
	if v[0] != 0 {
		t.Fatalf("balance = %d", v[0])
	}
	if cl.NetDeposits != -10_000 {
		t.Fatalf("NetDeposits = %d, want -10000 (clamped)", cl.NetDeposits)
	}
}

// TestWithdrawBooksCommittedAttempt: the amount a withdrawal books is what
// the attempt that committed took. The first region attempt sees a balance
// below the amount and clamps; it then aborts on a conflict, the balance is
// raised meanwhile, and the attempt that commits takes the full amount.
//
// The conflict is forced, not awaited: the test holds the seqlock of the line
// with the write-ahead log's head word, which the region reads when it appends
// its log record, after it has computed the new balance; so every attempt
// aborts there until the test — having seen the first abort counted — raises
// the balance and lets go.
func TestWithdrawBooksCommittedAttempt(t *testing.T) {
	w, rt, stop := newWorkload(t, 1, 1, func(c *cluster.Config) { c.Durability = true })
	defer stop()
	rt.FallbackThreshold = 1 << 30 // keep retrying the region; no lock-based fallback
	const acct, amt = 1, 50_000    // the initial balance is 10 000

	tbl := rt.C.Node(0).Unordered(TableChecking)
	off, ok := tbl.LookupLocal(acct)
	if !ok {
		t.Fatal("account not found")
	}
	valueOff := kvs.ValueOffset(off)
	wal := rt.C.Worker(0, 0).WriteAheadLog.Arena()
	const head = memory.Line(0) // the log's head word
	prev, ok := wal.TryLockLineForHTM(head)
	if !ok {
		t.Fatal("log head line busy")
	}
	raised := make(chan struct{})
	go func() {
		defer close(raised)
		for rt.C.Obs.Total(obs.EvHTMConflictAbort) == 0 {
			runtime.Gosched()
		}
		tbl.Arena().Write(valueOff, []uint64{60_000})
		wal.UnlockLineForHTM(head, prev, false)
	}()

	cl := w.NewClient(rt.Executor(0, 0), 1)
	if err := cl.WithdrawChecking(acct, amt); err != nil {
		t.Fatal(err)
	}
	<-raised
	if v, _ := tbl.Get(acct); v[0] != 60_000-amt {
		t.Fatalf("balance = %d, want %d", v[0], 60_000-amt)
	}
	if cl.NetDeposits != -amt {
		t.Fatalf("NetDeposits = %d, want %d: booked an aborted attempt's amount", cl.NetDeposits, -amt)
	}
}

// TestMixConservation runs the full mix concurrently and checks that the
// total balance moved only by the tracked net deposits, and that the workers
// left no lock held, no release-side step parked and no logged write owed
// (Runtime.AuditQuiescent): without logs; with them, where every commit leaves
// a write-ahead record; and with them and one backup per partition, where
// every commit appends a redo record and leaves its release chain in flight.
func TestMixConservation(t *testing.T) {
	for _, arm := range []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"plain", nil},
		{"durable", func(c *cluster.Config) { c.Durability = true }},
		{"durable-replicated", func(c *cluster.Config) { c.Durability, c.ReplicationFactor = true, 1 }},
	} {
		t.Run(arm.name, func(t *testing.T) { mixConservation(t, arm.mut) })
	}
}

func mixConservation(t *testing.T, mut func(*cluster.Config)) {
	const nodes, workers = 2, 2
	w, rt, stop := newWorkload(t, nodes, workers, mut)
	defer stop()
	initial := w.TotalBalance()

	var wg sync.WaitGroup
	clients := make([]*Client, 0, nodes*workers)
	var mu sync.Mutex
	for n := 0; n < nodes; n++ {
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(n, k int) {
				defer wg.Done()
				cl := w.NewClient(rt.Executor(n, k), int64(n*10+k))
				for i := 0; i < 200; i++ {
					if _, err := cl.RunOne(); err != nil {
						t.Errorf("txn: %v", err)
						return
					}
				}
				mu.Lock()
				clients = append(clients, cl)
				mu.Unlock()
			}(n, k)
		}
	}
	wg.Wait()

	var net int64
	var txns int64
	for _, cl := range clients {
		net += cl.NetDeposits
		for _, c := range cl.Counts {
			txns += c
		}
	}
	if txns == 0 {
		t.Fatal("no transactions ran")
	}
	got := int64(w.TotalBalance())
	want := int64(initial) + net
	if got != want {
		t.Fatalf("total = %d, want %d (drift %d over %d txns)", got, want, got-want, txns)
	}
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatal(err)
	}
}
