package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drtm"
	"drtm/internal/smallbank"
)

// The chaos experiment is the end-to-end proof of the fault story: a
// SmallBank cluster runs with durability, fault injection and lease-based
// failure detection all enabled, while a killer goroutine repeatedly
// crashes nodes under live traffic. Detection, coordinator election,
// log replay and revival all happen through the production path (no test
// back-doors), and the final table reports the money-conservation check —
// committed transactions must survive every crash — next to the fault,
// detection and recovery counters from db.Stats().
func init() {
	Register(Experiment{
		ID:    "chaos",
		Title: "Chaos: SmallBank under crashes, lease detection + online recovery",
		Run:   runChaosExp,
	})
}

func runChaosExp(o Options) *Result {
	const (
		nodes   = 3
		workers = 2
	)
	cycles := 6
	if o.Quick {
		cycles = 3
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	cfg := smallbank.Config{
		Nodes:           nodes,
		AccountsPerNode: 120,
		HotAccounts:     8,
		HotProb:         0.25,
		DistProb:        0.3, // plenty of distributed transactions to strand mid-crash
		InitialBalance:  1000,
	}

	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		Durability:       true,
		FailureDetection: true,
		FaultSeed:        seed,
	}, cfg.Partitioner())
	defer db.Close()

	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		panic(err)
	}
	initial := w.TotalBalance()

	// Transient-fault seasoning on top of the crashes: ~1% of verbs from
	// the crash victims into node 0 time out, exercising the bounded-retry
	// path even while every machine is up.
	db.InjectLinkFaults(1, 0, drtm.FaultRule{FailProb: 0.01})
	db.InjectLinkFaults(2, 0, drtm.FaultRule{FailProb: 0.01})

	base := db.Stats()

	var (
		stop          = make(chan struct{})
		outage        atomic.Bool
		commits       atomic.Int64
		outageCommits atomic.Int64
		downAborts    atomic.Int64
		wg            sync.WaitGroup
	)
	clients := make([]*smallbank.Client, 0, nodes*workers)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), seed+int64(n*workers+wk))
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
						// Fail-stop: a crashed machine runs nothing until the
						// recovery coordinator revives it.
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if _, err := cl.RunOne(); err == nil {
						commits.Add(1)
						if outage.Load() {
							outageCommits.Add(1)
						}
					} else if errors.Is(err, drtm.ErrNodeDown) {
						downAborts.Add(1)
					}
				}
			}(n, cl)
		}
	}

	// The killer: crash nodes 1 and 2 alternately (node 0 stays up, so the
	// lowest-ID survivor always has a coordinator candidate) and wait for
	// the detection -> election -> recovery -> revival chain to bring the
	// victim back before the next round.
	recovered := 0
	for i := 0; i < cycles; i++ {
		time.Sleep(15 * time.Millisecond) // healthy traffic between crashes
		victim := 1 + i%2
		outage.Store(true)
		db.Crash(victim)
		deadline := time.Now().Add(10 * time.Second)
		for !db.C.Node(victim).Alive() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if db.C.Node(victim).Alive() {
			recovered++
		}
		outage.Store(false)
	}
	close(stop)
	wg.Wait()

	// Every parked release-side write must have drained before the audit.
	pending := 0
	for n := 0; n < nodes; n++ {
		pending += db.RT.PendingOps(n)
	}

	final := w.TotalBalance()
	var net int64
	for _, cl := range clients {
		net += cl.NetDeposits
	}
	want := int64(initial) + net

	st := db.Stats().Delta(base)

	res := &Result{
		ID:      "chaos",
		Title:   "Chaos: SmallBank under crashes, lease detection + online recovery",
		Headers: []string{"metric", "value"},
	}
	conservation := fmt.Sprintf("OK (%d = %d initial %+d net deposits)", final, initial, net)
	if int64(final) != want {
		conservation = fmt.Sprintf("VIOLATED: final %d, want %d (initial %d %+d net deposits)",
			final, want, initial, net)
	}
	res.AddRow("accounts", fmt.Sprintf("%d x2 sub-accounts on %d nodes", nodes*cfg.AccountsPerNode, nodes))
	res.AddRow("crash-cycles", fmt.Sprintf("%d (recovered: %d)", cycles, recovered))
	res.AddRow("commits", fmt.Sprintf("%d", commits.Load()))
	res.AddRow("commits-during-outage", fmt.Sprintf("%d", outageCommits.Load()))
	count := func(label, name string) { res.AddRow(label, fmt.Sprintf("%d", st.Count(name))) }
	count("node-down-aborts", "tx.node_down")
	res.AddRow("balance-conservation", conservation)
	res.AddRow("pending-after-drain", fmt.Sprintf("%d", pending))
	count("detections", "fault.detect")
	count("recoveries", "recovery.run")
	res.AddRow("recovery-time", fmt.Sprintf("%v", time.Duration(st.Count("recovery.ns"))))
	count("recovery-redos", "recovery.redo")
	count("recovery-unlocks", "recovery.unlock")
	count("recovery-wal-scanned", "recovery.wal_scanned")
	count("log-restarts", "nvram.log_restart")
	count("log-grows", "nvram.log_grow")
	res.AddRow("log-high-water", fmt.Sprintf("%d of %d words", st.Count("nvram.log_high_water"), db.C.Config().LogWords))
	count("verb-faults", "fault.verb")
	count("lock-retries", "fault.retry")
	res.AddRow("retry-backoff", fmt.Sprintf("%v", time.Duration(st.Count("fault.backoff_ns"))))

	res.Note("detector: 1ms heartbeats, 12ms failure timeout, 2ms election stagger; fault seed %d", seed)
	res.Note("1%% injected verb timeouts on links 1->0 and 2->0; nodes 1,2 crashed alternately under live traffic")
	res.Note("conservation audit runs after the last revival; recovery-time is wall-clock, other times modeled")
	res.Note("log-high-water: the most live words one NVRAM log held at a transaction boundary, of the LogWords cap; workers restart their logs at every boundary except while a release is parked for a crashed node")
	return res
}
