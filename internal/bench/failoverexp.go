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

// The failover experiment pits the two crash-repair strategies against each
// other on the same SmallBank workload and the same crash. The f=0 arm runs
// the original durability story: the detector confirms the death and the
// coordinator replays the victim's full NVRAM write-ahead logs before
// reviving it. The f=1 arm runs FaRM-style commit-backup: every commit
// already shipped its write-set to a backup's redo log, so the coordinator
// only promotes the backup and replays the short redo tail — the victim
// stays dead and the partition keeps serving from the replica. The headline
// number is the unavailability ratio (promotion time / full-recovery time);
// the conservation rows prove neither arm loses a committed transaction.
func init() {
	Register(Experiment{
		ID:    "failover",
		Title: "Failover: hot-standby promotion vs full NVRAM-replay recovery",
		Run:   runFailoverExp,
	})
}

// failoverArm is one measured run: a SmallBank cluster under live traffic,
// one crash of node 1, and the repair path selected by the replication
// factor (f=0: detector-driven Recover + revival; f>0: detector-driven hot
// promotion). Both arms share the warm window, so the f=0 arm's WAL and the
// f=1 arm's redo tail reflect the same committed history.
type failoverArm struct {
	f             int
	unavailNS     int64 // wall-clock inside Recover (f=0) or Failover (f>0)
	commits       int64
	outageCommits int64
	downAborts    int64
	detections    int64
	recoveries    int64
	failovers     int64
	logAppends    int64
	backupBytes   int64
	redoTail      int64
	walScanned    int64 // write-ahead records the f=0 arm's Recover read
	repaired      bool  // victim revived (f=0) / partition promoted (f>0)
	initial, net  int64 // conservation audit inputs
	final, want   int64
}

func (a failoverArm) conserved() bool { return a.final == a.want }

func (a failoverArm) conservation() string {
	if a.conserved() {
		return fmt.Sprintf("OK (%d = %d initial %+d net deposits)", a.final, a.initial, a.net)
	}
	return fmt.Sprintf("VIOLATED: final %d, want %d (initial %d %+d net)",
		a.final, a.want, a.initial, a.net)
}

func measureFailoverArm(o Options, f int) failoverArm {
	const (
		nodes   = 3
		workers = 2
		victim  = 1
	)
	warm, tail := 30*time.Millisecond, 15*time.Millisecond
	if o.Quick {
		warm, tail = 20*time.Millisecond, 10*time.Millisecond
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	cfg := smallbank.Config{
		Nodes:           nodes,
		AccountsPerNode: 100,
		HotAccounts:     8,
		HotProb:         0.25,
		DistProb:        0.3, // distributed transactions strand mid-crash
		InitialBalance:  1000,
	}

	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		LeaseMicros: simLeaseMicros, ROLeaseMicros: simROLeaseMicros,
		Durability:        true,
		ReplicationFactor: f,
		FailureDetection:  true,
		HeartbeatInterval: time.Millisecond,
		FailureTimeout:    12 * time.Millisecond,
		ElectionStagger:   2 * time.Millisecond,
		FaultSeed:         seed,
	}, cfg.Partitioner())
	defer db.Close()

	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		panic(err)
	}
	initial := int64(w.TotalBalance())
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

	// Build real state before the crash: the f=0 arm accumulates NVRAM WAL
	// to replay, the f=1 arm accumulates (checkpoint-bounded) redo tails.
	time.Sleep(warm)
	outage.Store(true)
	db.Crash(victim)

	// Wait for the repair this arm is configured for: full recovery revives
	// the victim; hot failover hands its partition to a backup and leaves
	// the victim dead.
	repaired := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f == 0 {
			repaired = db.C.Node(victim).Alive()
		} else {
			repaired = db.PartitionOwner(victim) != victim
		}
		if repaired {
			break
		}
		time.Sleep(time.Millisecond)
	}
	outage.Store(false)

	time.Sleep(tail) // post-repair traffic against the repaired partition
	close(stop)
	wg.Wait()

	final := int64(w.TotalBalance())
	var net int64
	for _, cl := range clients {
		net += cl.NetDeposits
	}

	st := db.Stats().Delta(base)
	unavail := st.RecoveryNanos
	if f > 0 {
		unavail = st.PromoteNanos
	}
	return failoverArm{
		f:             f,
		unavailNS:     unavail,
		commits:       commits.Load(),
		outageCommits: outageCommits.Load(),
		downAborts:    downAborts.Load(),
		detections:    st.Detections,
		recoveries:    st.Recoveries,
		failovers:     st.Failovers,
		logAppends:    st.LogAppends,
		backupBytes:   st.BackupBytes,
		redoTail:      st.RedoTailLen,
		walScanned:    st.RecoveryScans,
		repaired:      repaired,
		initial:       initial,
		net:           net,
		final:         final,
		want:          initial + net,
	}
}

func runFailoverExp(o Options) *Result {
	rec := measureFailoverArm(o, 0)
	hot := measureFailoverArm(o, 1)

	res := &Result{
		ID:      "failover",
		Title:   "Failover: hot-standby promotion vs full NVRAM-replay recovery",
		Headers: []string{"metric", "recover (f=0)", "failover (f=1)"},
	}
	repairName := func(a failoverArm) string {
		if !a.repaired {
			return "TIMED OUT"
		}
		if a.f == 0 {
			return "victim revived"
		}
		return "backup promoted"
	}
	res.AddRow("repair", repairName(rec), repairName(hot))
	res.AddRow("unavailability",
		fmt.Sprintf("%v", time.Duration(rec.unavailNS)),
		fmt.Sprintf("%v", time.Duration(hot.unavailNS)))
	res.AddRow("commits", fmt.Sprintf("%d", rec.commits), fmt.Sprintf("%d", hot.commits))
	res.AddRow("commits-during-outage",
		fmt.Sprintf("%d", rec.outageCommits), fmt.Sprintf("%d", hot.outageCommits))
	res.AddRow("node-down-aborts",
		fmt.Sprintf("%d", rec.downAborts), fmt.Sprintf("%d", hot.downAborts))
	res.AddRow("balance-conservation", rec.conservation(), hot.conservation())
	res.AddRow("detections", fmt.Sprintf("%d", rec.detections), fmt.Sprintf("%d", hot.detections))
	res.AddRow("recoveries", fmt.Sprintf("%d", rec.recoveries), fmt.Sprintf("%d", hot.recoveries))
	res.AddRow("failovers", fmt.Sprintf("%d", rec.failovers), fmt.Sprintf("%d", hot.failovers))
	res.AddRow("log-appends", fmt.Sprintf("%d", rec.logAppends), fmt.Sprintf("%d", hot.logAppends))
	res.AddRow("backup-bytes", fmt.Sprintf("%d", rec.backupBytes), fmt.Sprintf("%d", hot.backupBytes))
	res.AddRow("wal-records-scanned", fmt.Sprintf("%d", rec.walScanned), fmt.Sprintf("%d", hot.walScanned))
	res.AddRow("redo-tail-replayed", fmt.Sprintf("%d", rec.redoTail), fmt.Sprintf("%d", hot.redoTail))

	if rec.unavailNS > 0 {
		ratio := float64(hot.unavailNS) / float64(rec.unavailNS)
		res.AddRow("unavailability-ratio", "1.00x (baseline)", fmt.Sprintf("%.3fx", ratio))
		res.Note("gate: promotion unavailability must stay < 0.2x of the full-replay baseline (TestFailoverAcceptance)")
	}
	res.Note("same warm window both arms: f=0 replays the whole NVRAM WAL, f=1 replays only the checkpoint-bounded redo tail")
	res.Note("detector: 1ms heartbeats, 12ms failure timeout, 2ms election stagger; node 1 crashed once under live traffic; seed %d", seed(o))
	res.Note("wal-records-scanned and redo-tail-replayed are each repair's work in log records, the quantity the wall-clock ratio follows: what Recover read from the victim's write-ahead logs (f=0) against what the promotion replayed from redo tails (f=1)")
	res.Note("unavailability is wall-clock until the partition serves again: the whole Recover call (f=0) vs view handover + adopted-partition redo replay (f=1); detection latency is identical across arms")
	return res
}

func seed(o Options) int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}
