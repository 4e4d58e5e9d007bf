package bench

import (
	"fmt"
	"time"

	"drtm"
	"drtm/internal/crashrig"
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

// bankCrash is one SmallBank run under crashes, as runBankCrash reports it.
type bankCrash struct {
	crashrig.Counts
	err                 error      // the client error that stopped the run early, if any
	st                  drtm.Stats // the counters' delta from the loaded bank to the audit
	logCap              int        // cluster.Config.LogWords, what log-high-water is held against
	initial, net, final int64      // the money audit's inputs
}

func (c bankCrash) conserved() bool { return c.final == c.initial+c.net }

func (c bankCrash) conservation() string {
	if c.conserved() {
		return fmt.Sprintf("OK (%d = %d initial %+d net deposits)", c.final, c.initial, c.net)
	}
	return fmt.Sprintf("VIOLATED: final %d, want %d (initial %d %+d net deposits)",
		c.final, c.initial+c.net, c.initial, c.net)
}

func (c bankCrash) clientError() string {
	if c.err != nil {
		return c.err.Error()
	}
	return "none"
}

// runBankCrash loads a SmallBank bank of cfg on a durable cluster of opts with
// lease-based failure detection, lets faults, if any, inject fault rules, and
// runs one client per worker on the crash rig, seeded from opts.FaultSeed,
// while drive crashes and repairs machines. Then it audits the money: the final
// total against the initial one plus the clients' committed net deposits.
func runBankCrash(opts drtm.Options, cfg smallbank.Config, faults func(*drtm.DB), drive func(*drtm.DB, *crashrig.Run)) bankCrash {
	opts.Durability, opts.FailureDetection = true, true
	db := drtm.MustOpen(opts, cfg.Partitioner())
	defer db.Close()
	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		panic(err)
	}
	c := bankCrash{initial: int64(w.TotalBalance()), logCap: db.C.Config().LogWords}
	if faults != nil {
		faults(db)
	}
	base := db.Stats()
	var clients []*smallbank.Client
	run := crashrig.Start(db, func(n, wk int) func() error {
		cl := w.NewClient(db.Executor(n, wk), opts.FaultSeed+int64(n*opts.WorkersPerNode+wk))
		clients = append(clients, cl)
		return func() error { _, err := cl.RunOne(); return err }
	})
	drive(db, run)
	c.Counts, c.err = run.Stop()
	c.final, c.st = int64(w.TotalBalance()), db.Stats().Delta(base)
	for _, cl := range clients {
		c.net += cl.NetDeposits
	}
	return c
}

func runChaosExp(o Options) *Result {
	const nodes = 3
	cycles := 6
	if o.Quick {
		cycles = 3
	}
	cfg := smallbank.Config{
		Nodes:           nodes,
		AccountsPerNode: 120,
		HotAccounts:     8,
		HotProb:         0.25,
		DistProb:        0.3, // plenty of distributed transactions to strand mid-crash
		InitialBalance:  1000,
	}
	// Transient-fault seasoning on top of the crashes: ~1% of verbs from the
	// crash victims into node 0 time out, exercising the bounded-retry path
	// even while every machine is up.
	faults := func(db *drtm.DB) {
		db.InjectLinkFaults(1, 0, drtm.FaultRule{FailProb: 0.01})
		db.InjectLinkFaults(2, 0, drtm.FaultRule{FailProb: 0.01})
	}
	// The killer: crash nodes 1 and 2 alternately (node 0 stays up, so the
	// lowest-ID survivor always has a coordinator candidate) and wait for the
	// detection -> election -> recovery -> revival chain to bring the victim
	// back before the next round. A victim whose workers hold no log record
	// when it dies gives Recover nothing to replay, so the cycles go on, up to
	// 4x, until some Recover has replayed one.
	crashes, recovered := 0, 0
	c := runBankCrash(drtm.Options{Nodes: nodes, WorkersPerNode: 2, FaultSeed: seed(o)}, cfg, faults,
		func(db *drtm.DB, run *crashrig.Run) {
			for ; crashes < cycles || (crashes < 4*cycles && db.Stats().Count("recovery.run") == 0); crashes++ {
				if run.Phase(15*time.Millisecond, 1000) != nil { // healthy traffic between crashes
					return
				}
				victim := 1 + crashes%2
				if run.Crash(victim, db.C.Node(victim).Alive) {
					recovered++
				}
			}
		})

	res := &Result{
		ID:      "chaos",
		Title:   "Chaos: SmallBank under crashes, lease detection + online recovery",
		Headers: []string{"metric", "value"},
	}
	res.AddRow("accounts", fmt.Sprintf("%d x2 sub-accounts on %d nodes", nodes*cfg.AccountsPerNode, nodes))
	res.AddRow("crash-cycles", fmt.Sprintf("%d (recovered: %d)", crashes, recovered))
	res.AddRow("commits", fmt.Sprintf("%d", c.Commits))
	res.AddRow("commits-during-outage", fmt.Sprintf("%d", c.OutageCommits))
	res.AddRow("client-error", c.clientError())
	count := func(label, name string) { res.AddRow(label, fmt.Sprintf("%d", c.st.Count(name))) }
	count("node-down-aborts", "tx.node_down")
	res.AddRow("balance-conservation", c.conservation())
	count("detections", "fault.detect")
	count("recoveries", "recovery.run")
	res.AddRow("recovery-time", fmt.Sprintf("%v", time.Duration(c.st.Count("recovery.ns"))))
	count("recovery-redos", "recovery.redo")
	count("recovery-unlocks", "recovery.unlock")
	count("recovery-wal-scanned", "recovery.wal_scanned")
	count("log-restarts", "nvram.log_restart")
	count("log-grows", "nvram.log_grow")
	res.AddRow("log-high-water", fmt.Sprintf("%d of %d words", c.st.Count("nvram.log_high_water"), c.logCap))
	count("verb-faults", "fault.verb")
	count("lock-retries", "fault.retry")
	res.AddRow("retry-backoff", fmt.Sprintf("%v", time.Duration(c.st.Count("fault.backoff_ns"))))

	res.Note("detector: 1ms heartbeats, 12ms failure timeout, 2ms election stagger; fault seed %d", seed(o))
	res.Note("1%% injected verb timeouts on links 1->0 and 2->0; nodes 1,2 crashed alternately under live traffic, %d cycles or more, up to %d, until a Recover has replayed a log record", cycles, 4*cycles)
	res.Note("a phase of healthy traffic lasts 15ms and 1000 commits; client-error is a transaction error other than ErrNodeDown, which stops the run")
	res.Note("conservation audit runs after the last revival; recovery-time is wall-clock, other times modeled")
	res.Note("log-high-water: the most live words one NVRAM log held at a transaction boundary, of the LogWords cap; a worker restarts its logs at every boundary unless its own machine is down")
	return res
}
