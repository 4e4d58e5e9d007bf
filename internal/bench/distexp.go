package bench

import (
	"fmt"
	"math/rand"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/smallbank"
	"drtm/internal/tx"
)

// runDistWaves prints what a distributed transaction pays in polled doorbell
// waves, stage by stage: the wave ledger (obs.Stage) of the cross-node share of
// the repository benchmark's smallbank_dist mix — send-payment and amalgamate,
// 25 : 15, the partner account always on the other machine — and of the same
// mix under smallbank_repl's logging and replication. A wave is a round trip;
// its CASes say whether it is a 14.5 us one.
func runDistWaves(o Options) *Result {
	res := &Result{
		ID:      "dist-waves",
		Title:   "Polled waves of a distributed SmallBank transaction, by stage",
		Headers: []string{"workload", "stage", "waves/txn", "WRs/wave", "CAS/txn", "modeled/txn", "in flight/txn"},
	}
	txns, accounts := 20_000, 200_000
	if o.Quick {
		txns, accounts = 2_000, 20_000
	}
	for _, arm := range []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"smallbank_dist", nil},
		{"smallbank_repl", func(c *cluster.Config) {
			c.Durability, c.ReplicationFactor = true, 1
		}},
	} {
		stages, commits := measureDistWaves(o, txns, accounts, arm.mut)
		n := float64(commits)
		var all obs.WaveStats
		row := func(stage string, w obs.WaveStats) {
			perWave := "-"
			if w.Waves > 0 {
				perWave = fmt.Sprintf("%.2f", float64(w.WRs)/float64(w.Waves))
			}
			res.AddRow(arm.name, stage, fmt.Sprintf("%.3f", float64(w.Waves)/n), perWave,
				fmt.Sprintf("%.3f", float64(w.CASes)/n), fmt.Sprintf("%.2fus", float64(w.Nanos)/n/1e3),
				fmt.Sprintf("%.2fus", float64(w.Inflight)/n/1e3))
		}
		for st, w := range stages {
			row(obs.Stage(st).String(), w)
			all.Waves += w.Waves
			all.WRs += w.WRs
			all.CASes += w.CASes
			all.Nanos += w.Nanos
			all.Inflight += w.Inflight
		}
		row("all stages", all)
	}
	res.Note("2 machines x 1 worker, %d accounts per machine, 100 hot at 50%%, adaptive read policy; every transaction is cross-node", accounts)
	res.Note("lookup waves are location-cache misses; abort-release is what conflicting attempts paid before the commit that counts")
	res.Note("smallbank_repl adds one redo append to the backup, polled ahead of every release: the commit record, with no write-ahead log beside it; it carries the home bit only once the worker's last release chain has landed")
	res.Note("in flight: latency a detached wave left for later waits to overlap, not in its stage's modeled charge; the release waves are detached on both arms, awaited only under logs without backups (f = 0 + durability)")
	return res
}

// measureDistWaves runs txns cross-node SmallBank transactions on each of two
// machines and returns the wave ledger of the run and the commits it covers.
func measureDistWaves(o Options, txns, accounts int, mut func(*cluster.Config)) ([obs.NumStages]obs.WaveStats, int64) {
	const nodes = 2
	ccfg := simClusterConfig(nodes, 1)
	if mut != nil {
		mut(&ccfg)
	}
	c := cluster.New(ccfg)
	c.Start()
	defer c.Stop()
	cfg := smallbank.Config{Nodes: nodes, AccountsPerNode: accounts, HotAccounts: 100,
		HotProb: 0.5, DistProb: 1, InitialBalance: 10_000}
	rt := tx.NewRuntime(c, cfg.Partitioner())
	rt.ReadPolicy = tx.PolicyAdaptive
	w, err := smallbank.Setup(rt, cfg)
	if err != nil {
		panic(err)
	}
	resetClocks(rt)
	before := c.Obs.Snapshot()
	runWorkers(nodes, func(n int) {
		cl := w.NewClient(rt.Executor(n, 0), o.Seed+int64(n))
		rng := rand.New(rand.NewSource(o.Seed*7919 + int64(n)))
		account := func(node int) uint64 {
			base := uint64(node * accounts)
			if rng.Float64() < cfg.HotProb {
				return base + uint64(rng.Intn(cfg.HotAccounts)) + 1
			}
			return base + uint64(rng.Intn(accounts)) + 1
		}
		for t := 0; t < txns; t++ {
			a, b := account(n), account(1-n)
			var err error
			if rng.Intn(40) < 25 {
				err = cl.SendPayment(a, b, uint64(rng.Intn(50)+1))
			} else {
				err = cl.Amalgamate(a, b)
			}
			if err != nil {
				panic(err)
			}
		}
	})
	sn := c.Obs.Snapshot().Delta(before)
	return sn.Stages, sn.Counters[obs.EvTxCommit]
}

func init() {
	Register(Experiment{ID: "dist-waves", Title: "Polled waves per distributed transaction, by stage", Run: runDistWaves})
}
