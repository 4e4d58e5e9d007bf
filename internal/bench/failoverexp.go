package bench

import (
	"fmt"
	"time"

	"drtm"
	"drtm/internal/crashrig"
	"drtm/internal/smallbank"
)

// The failover experiment runs the two crash-repair strategies on the same
// SmallBank workload and the same crash. The f=0 arm runs the original
// durability story: the detector confirms the death and the coordinator
// replays the victim's NVRAM logs before reviving it. The f=1 arm runs
// FaRM-style commit-backup: every commit already shipped its write-set to a
// backup's redo log, so the coordinator promotes the backup and replays the
// redo tail — the victim stays dead and the partition serves from the replica.
// Both repairs are short: a worker's logs hold its transactions in flight, not
// its history (tx.Executor.reclaimLogs), and a redo ring is drained as it fills.
// What replication buys is therefore not a faster repair but a repair that
// needs neither the victim's revival nor its NVRAM. Each arm runs at a 1x and a
// 4x warm window: the repair's work in log records must not follow the history
// behind it, and the conservation rows prove no arm loses a committed
// transaction.
const failoverTitle = "Failover: hot-standby promotion vs NVRAM-log recovery"

func init() {
	Register(Experiment{
		ID:    "failover",
		Title: failoverTitle,
		Run:   runFailoverExp,
	})
}

// failoverArm is one measured run: a SmallBank cluster under live traffic,
// one crash of node 1, and the repair path selected by the replication
// factor (f=0: detector-driven Recover + revival; f>0: detector-driven hot
// promotion), after a warm window of warmX times the base length.
type failoverArm struct {
	bankCrash
	f        int
	repaired bool // victim revived (f=0) / partition promoted (f>0)
}

// unavailNS is the wall-clock inside Recover (f=0) or until the promoted
// partition serves (f>0).
func (a failoverArm) unavailNS() int64 {
	if a.f == 0 {
		return a.st.Count("recovery.ns")
	}
	return a.st.Count("repl.promote_ns")
}

func measureFailoverArm(o Options, f, warmX int) failoverArm {
	const victim = 1
	warm, tail := 30*time.Millisecond, 15*time.Millisecond
	if o.Quick {
		warm, tail = 20*time.Millisecond, 10*time.Millisecond
	}
	cfg := smallbank.Config{
		Nodes:           3,
		AccountsPerNode: 100,
		HotAccounts:     8,
		HotProb:         0.25,
		DistProb:        0.3, // distributed transactions strand mid-crash
		InitialBalance:  1000,
	}
	a := failoverArm{f: f}
	opts := drtm.Options{Nodes: cfg.Nodes, WorkersPerNode: 2, ReplicationFactor: f, FaultSeed: seed(o)}
	a.bankCrash = runBankCrash(opts, cfg, nil, func(db *drtm.DB, run *crashrig.Run) {
		// Build history before the crash (neither the victim's logs nor the
		// redo tails may keep it), wait for this arm's repair (full recovery
		// revives the victim; hot failover promotes a backup and leaves the
		// victim dead), then run traffic against the repaired partition.
		if run.Phase(time.Duration(warmX)*warm, 1000*int64(warmX)) != nil {
			return
		}
		a.repaired = run.Crash(victim, func() bool {
			if f == 0 {
				return db.C.Node(victim).Alive()
			}
			return db.PartitionOwner(victim) != victim
		})
		run.Phase(tail, 500) // the run's error, if any, is bankCrash.err
	})
	return a
}

func runFailoverExp(o Options) *Result {
	arms := []failoverArm{
		measureFailoverArm(o, 0, 1), measureFailoverArm(o, 1, 1),
		measureFailoverArm(o, 0, 4), measureFailoverArm(o, 1, 4),
	}

	res := &Result{
		ID:    "failover",
		Title: failoverTitle,
		Headers: []string{"metric", "recover (f=0)", "failover (f=1)",
			"recover, 4x warm", "failover, 4x warm"},
	}
	row := func(name string, cell func(a failoverArm) string) {
		cells := []string{name}
		for _, a := range arms {
			cells = append(cells, cell(a))
		}
		res.AddRow(cells...)
	}
	count := func(name string, v func(a failoverArm) int64) {
		row(name, func(a failoverArm) string { return fmt.Sprintf("%d", v(a)) })
	}
	counter := func(label, name string) {
		count(label, func(a failoverArm) int64 { return a.st.Count(name) })
	}
	row("repair", func(a failoverArm) string {
		switch {
		case !a.repaired:
			return "TIMED OUT"
		case a.f == 0:
			return "victim revived"
		}
		return "backup promoted"
	})
	row("unavailability", func(a failoverArm) string { return fmt.Sprintf("%v", time.Duration(a.unavailNS())) })
	count("commits", func(a failoverArm) int64 { return a.Commits })
	count("commits-during-outage", func(a failoverArm) int64 { return a.OutageCommits })
	count("node-down-aborts", func(a failoverArm) int64 { return a.DownAborts })
	row("client-error", failoverArm.clientError)
	row("balance-conservation", failoverArm.conservation)
	counter("detections", "fault.detect")
	counter("recoveries", "recovery.run")
	counter("failovers", "repl.failover")
	counter("log-appends", "repl.log_append")
	counter("backup-bytes", "repl.backup_bytes")
	counter("wal-records-scanned", "recovery.wal_scanned")
	counter("redo-tail-replayed", "repl.redo_tail")
	counter("ring-drains", "repl.ring_drain")
	counter("log-restarts", "nvram.log_restart")
	counter("log-grows", "nvram.log_grow")
	row("log-high-water", func(a failoverArm) string {
		return fmt.Sprintf("%d of %d words", a.st.Count("nvram.log_high_water"), a.logCap)
	})

	res.Note("gate (TestFailoverAcceptance): each repair's work in log records — wal-records-scanned for f=0, redo-tail-replayed for f=1 — stays under a constant at the 1x and at the 4x warm window; every arm repairs and conserves money")
	res.Note("a worker of a live machine restarts its NVRAM logs at every transaction boundary (log-restarts), so Recover reads the victim's transactions in flight, not its history; a redo ring is drained as an append takes it past cluster.CheckpointWords (ring-drains counts the records), so the promotion's tail is bounded too")
	res.Note("what f=1 buys is availability without the victim: the partition serves from the promoted replica once the redo tails hosted on the new owner are replayed — before anything of the victim's NVRAM is read (a sweep of the state words frees its stuck locks afterwards) — and the machine stays dead; f=0 must read the victim's logs and revive it, and until then every transaction that touches its partition aborts (node-down-aborts)")
	res.Note("detector: 1ms heartbeats, 12ms failure timeout, 2ms election stagger; node 1 crashed once under live traffic; seed %d", seed(o))
	res.Note("the warm window lasts its host-clock length and 1000 commits per 1x, the post-repair tail its length and 500 commits, so a loaded host stretches them; client-error is a transaction error other than ErrNodeDown, which stops the run")
	res.Note("unavailability is wall-clock of the repair call alone, tens of microseconds either way and noisy: the whole Recover call (f=0), view handover + adopted-partition redo replay (f=1); detection latency is identical across arms")
	res.Note("log-high-water is the most live words one log of one worker held at a transaction boundary, against cluster.Config.LogWords, the cap whose overrun is fatal; a release-side step owed to the dead victim runs at once on its memory at either f, so only the victim's own zombie workers keep their records")
	return res
}

func seed(o Options) int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}
