package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tx"
)

// The `adaptive` experiment pits the per-bucket adaptive read-arm selector
// (tx.PolicyAdaptive) against both static arms across a skew × write-ratio
// sweep, on a workload built to expose each static arm's losing corner:
//
//	lease — pays the ~14.5µs CAS on every read record: dominated when the
//	        key space is quiet (the CAS buys protection nobody attacks),
//	        and its read leases stall writers for the lease term.
//	spec  — pays ~1.5µs per read but retries the whole transaction when a
//	        writer bumps any of its records before commit: with a large
//	        read set over a hot, write-heavy keyspace the per-attempt
//	        failure probability compounds toward quasi-livelock.
//
// The adaptive arm routes each read by its bucket's conflict EWMA —
// lease-when-hot, spec-when-cold. The EWMA is fed by retry cascades only: a
// lost validation weighs the attempts its transaction had already lost that
// way, so isolated losses (one retry each, cheaper than the CAS tax) leave a
// bucket cold and the fifth consecutive loss turns it hot (tx.feedConflict).
//
// Two kinds of rows. The sweep rows are free-running — 2x2 workers under the Go
// scheduler — and are evidence, not a gate: since aborts release with WRITEs
// and retries stopped sleeping, speculation is the cheaper static arm at every
// sweep point, no cascade forms, and adaptive routes as spec does (the "vs
// best-static" column then shows the run-to-run spread of two identical
// routings, 0.8x–1.4x on two cores). The script rows are the gate
// (TestAdaptiveAcceptance, wired into `make adaptive` / `make check`): one
// goroutine plays a reader and the writer that rewrites the reader's hot
// record under each of its first `losses` attempts, between wide transactions
// over cold records, so every arm's modeled cost is exact and repeats to the
// nanosecond. With one loss per hot transaction adaptive must cost what spec
// costs and never switch; with a six-loss cascade it must lease the hot bucket
// and come out strictly cheaper than BOTH statics — spec pays the cascade
// every time, lease pays the CAS on the cold transactions too.
//
// Cost metric: summed worker virtual time over committed records
// (vtime / (commits × nrec)) — total modeled work including retries, not
// just the Start phase, so validation livelock and CAS taxes both count.
func runAdaptive(o Options) *Result {
	res := &Result{
		ID:    "adaptive",
		Title: "Adaptive per-bucket read-arm selection vs static lease/spec",
		Headers: []string{"theta", "write%", "arm", "per-rec", "retries/txn",
			"spec-fails/txn", "spec-share", "switches", "vs best-static"},
	}
	txns := adaptTxns(o)
	// addRows measures one point under every arm and prints its three rows.
	addRows := func(col1, col2, perRec string, measure func(tx.ReadPolicy) adaptMetrics) {
		row := map[tx.ReadPolicy]adaptMetrics{}
		for _, p := range adaptArms {
			row[p] = measure(p)
		}
		best := min(row[tx.PolicyLease].perRecNS, row[tx.PolicySpeculative].perRecNS)
		for _, p := range adaptArms {
			m := row[p]
			ratio := "-"
			if p == tx.PolicyAdaptive && best > 0 {
				ratio = fmt.Sprintf("%.2fx", m.perRecNS/best)
			}
			res.AddRow(col1, col2, p.String(),
				fmt.Sprintf(perRec, m.perRecNS/1e3),
				fmt.Sprintf("%.3f", m.retriesPerTx),
				fmt.Sprintf("%.3f", m.specFailsPerTx),
				fmt.Sprintf("%.0f%%", m.specShare),
				fmt.Sprintf("%d", m.switches), ratio)
		}
	}
	for _, pt := range adaptSweep {
		addRows(fmt.Sprintf("%.2f", pt.theta), fmt.Sprintf("%d", pt.writePct), "%.2fus",
			func(p tx.ReadPolicy) adaptMetrics { return measureAdaptive(o, txns, pt.theta, pt.writePct, p) })
	}
	for _, losses := range adaptScripts {
		addRows("script", fmt.Sprintf("%d-loss", losses), "%.3fus",
			func(p tx.ReadPolicy) adaptMetrics { return measureAdaptiveScript(p, losses) })
	}
	res.Note("sweep rows: %d keys/node, %d-record all-remote read sets, %dx%d workers, free-running;", adaptPerNode, adaptNRec, adaptNodes, adaptWorkers)
	res.Note("script rows: one goroutine, %d rounds of 1 hot + %d cold transactions, the hot record rewritten", adaptScriptRounds, adaptScriptCold)
	res.Note("under the reader's first N attempts (N-loss); exact, identical on every run and seed.")
	res.Note("per-rec = summed worker virtual time / committed records (retries included).")
	res.Note("adaptive routes reads per kvs bucket: lease when the conflict EWMA is hot,")
	res.Note("spec when cold (half-life %d accesses, enter %.1f, exit %.1f).",
		tx.DefaultPolicyConfig().EWMAHalfLife, tx.DefaultPolicyConfig().HotThreshold,
		tx.DefaultPolicyConfig().HotThreshold*tx.DefaultPolicyConfig().Hysteresis)
	return res
}

var adaptArms = []tx.ReadPolicy{tx.PolicyLease, tx.PolicySpeculative, tx.PolicyAdaptive}

// adaptScripts are the scripted rows: lost validations per hot transaction.
var adaptScripts = []int{1, 6}

// adaptSweep is the theta × write% grid. The corners are chosen so each
// static arm loses at least one point: quiet tails favor spec, hot
// write-heavy heads favor lease (see TestAdaptiveAcceptance).
var adaptSweep = []struct {
	theta    float64
	writePct int
}{
	{0.20, 0},
	{0.20, 50},
	{0.90, 10},
	{0.90, 50},
	{0.99, 50},
}

// Workload shape: a small, hot key space and wide read sets amplify the
// spec arm's compounding validation-failure probability, while the cold
// Zipf tail keeps the lease arm paying CAS for nothing.
const (
	adaptPerNode = 256
	adaptNRec    = 8
	adaptNodes   = 2
	adaptWorkers = 2
)

func adaptTxns(o Options) int {
	if o.Quick {
		return 60
	}
	return 250
}

// adaptMetrics summarizes one measured (theta, write%, policy) cell.
type adaptMetrics struct {
	perRecNS       float64 // summed worker vtime per committed record
	commits        int64
	retriesPerTx   float64
	specFailsPerTx float64
	specShare      float64 // % of adaptive routes that took the spec arm
	switches       int64   // bucket reclassifications, both directions
	hotBuckets     int     // heat-table slots hot at the end of the run
}

// measureAdaptive runs the contended mixed workload under one read policy:
// every worker stages adaptNRec records homed on the peer node, keys
// Zipf(theta)-distributed over the node's adaptPerNode keys, each access a
// write with probability writePct/100.
func measureAdaptive(o Options, txns int, theta float64, writePct int, p tx.ReadPolicy) adaptMetrics {
	return measureAdaptiveW(o, txns, theta, writePct, p, adaptWorkers)
}

// measureAdaptiveSplit is the reader-starvation variant: per-worker roles
// instead of a per-access write ratio. Odd workers are pure writers, even
// workers pure readers, all over the same Zipf-skewed keys. Under the spec
// arm the writers continuously bump the readers' staged versions, so wide
// read sets fail validation near-deterministically — the cell where
// speculation loses by construction rather than by scheduling luck.
func measureAdaptiveSplit(o Options, txns int, theta float64, p tx.ReadPolicy, workers, perNode int) adaptMetrics {
	return measureAdaptiveCfg(o, txns, theta, 0, p, workers, perNode, true)
}

// measureAdaptiveW is measureAdaptive with an explicit worker count per
// node: the acceptance test raises it to deepen contention.
func measureAdaptiveW(o Options, txns int, theta float64, writePct int, p tx.ReadPolicy, workers int) adaptMetrics {
	return measureAdaptiveCfg(o, txns, theta, writePct, p, workers, adaptPerNode, false)
}

// measureAdaptiveCfg is the fully parameterized form: worker count and
// per-node key-space size, plus the reader/writer split switch (see
// measureAdaptiveSplit).
func measureAdaptiveCfg(o Options, txns int, theta float64, writePct int, p tx.ReadPolicy, workers, perNode int, split bool) adaptMetrics {
	rt, stop := buildMicro(adaptNodes, workers, perNode, nil, func(rt *tx.Runtime) {
		rt.ReadPolicy = p
		rt.CacheBudgetBytes = 0
	})
	defer stop()
	resetClocks(rt)
	before := rt.C.Obs.Snapshot()

	var wg sync.WaitGroup
	for node := 0; node < adaptNodes; node++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(node, w int) {
				defer wg.Done()
				e := rt.Executor(node, w)
				rng := rand.New(rand.NewSource(o.Seed + int64(node*workers+w)*7919))
				z := NewZipf(rng, uint64(perNode), theta)
				peerBase := uint64((1 - node) * perNode)
				accs := make([]tx.Access, adaptNRec)
				for t := 0; t < txns; t++ {
					for j := range accs {
						write := rng.Intn(100) < writePct
						if split {
							write = w%2 == 1
						}
						accs[j] = tx.Access{
							Table: benchTable,
							Key:   peerBase + 1 + z.Scrambled(),
							Write: write,
						}
					}
					err := e.Exec(func(t1 *tx.Tx) error {
						if err := t1.Stage(accs...); err != nil {
							return err
						}
						return t1.Execute(func(lc *tx.Local) error {
							for _, a := range accs {
								v, err := lc.Read(benchTable, a.Key)
								if err != nil {
									return err
								}
								if a.Write {
									if err := lc.Write(benchTable, a.Key,
										[]uint64{v[0] + 1, v[1]}); err != nil {
										return err
									}
								}
							}
							return nil
						})
					})
					// Retry-budget exhaustion under extreme contention is a
					// data point, not a harness failure.
					if err != nil && !errors.Is(err, tx.ErrRetry) {
						panic(err)
					}
				}
			}(node, w)
		}
	}
	wg.Wait()

	return adaptCollect(rt, before, 0)
}

// adaptCollect folds a run's counters and clocks into its metrics. txns is the
// number of measured transactions that committed; 0 means every commit the
// registry counted (the sweep, where every transaction is a measured one).
func adaptCollect(rt *tx.Runtime, before obs.Snapshot, txns int64) adaptMetrics {
	sn := rt.C.Obs.Snapshot().Delta(before)
	m := adaptMetrics{
		commits:    txns,
		switches:   sn.Counters[obs.EvArmSwitchToLease] + sn.Counters[obs.EvArmSwitchToSpec],
		hotBuckets: rt.HotBuckets(),
	}
	if txns == 0 {
		m.commits = sn.Counters[obs.EvTxCommit]
	}
	var vsum int64
	for _, w := range rt.C.Workers() {
		vsum += int64(w.VClock.Now())
	}
	if m.commits > 0 {
		m.perRecNS = float64(vsum) / float64(m.commits*adaptNRec)
		m.retriesPerTx = float64(sn.Counters[obs.EvTxRetry]) / float64(m.commits)
		m.specFailsPerTx = float64(sn.Counters[obs.EvSpecValidateFail]) / float64(m.commits)
	}
	if n := sn.Counters[obs.EvAdaptSpec] + sn.Counters[obs.EvAdaptLease]; n > 0 {
		m.specShare = 100 * float64(sn.Counters[obs.EvAdaptSpec]) / float64(n)
	}
	return m
}

// The script's shape: per round one hot transaction — the hot record and seven
// cold ones — then adaptScriptCold transactions over cold records only.
const (
	adaptScriptRounds = 40
	adaptScriptCold   = 3
)

var errScriptGaveUp = errors.New("bench: scripted writer lost its one try")

// measureAdaptiveScript runs the selector's deterministic script under one
// read policy on a single goroutine: a reader on node 0 stages adaptNRec
// records of node 1 and, under each of a hot transaction's first `losses`
// attempts, a writer on node 1 tries once — between the reader's Stage and its
// Execute — to rewrite the hot record. Against a speculative read the write
// lands and the reader's validation fails; against a lease it is refused.
// Leases never expire and the soft clocks stand still (newMicro), so nothing
// depends on real time.
func measureAdaptiveScript(p tx.ReadPolicy, losses int) adaptMetrics {
	rt := newMicro(adaptNodes, 1, adaptPerNode,
		func(c *cluster.Config) { c.LeaseMicros = 1 << 40 },
		func(rt *tx.Runtime) {
			rt.ReadPolicy = p
			rt.CacheBudgetBytes = 0
		})
	resetClocks(rt)
	before := rt.C.Obs.Snapshot()
	reader, writer := rt.Executor(0, 0), rt.Executor(1, 0)
	const hot = uint64(adaptPerNode + 1)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	bump := func() {
		tries := 0
		err := writer.Exec(func(t1 *tx.Tx) error {
			if tries++; tries > 1 {
				return errScriptGaveUp
			}
			if err := t1.W(benchTable, hot); err != nil {
				return err
			}
			return t1.Execute(func(lc *tx.Local) error {
				v, err := lc.Read(benchTable, hot)
				if err != nil {
					return err
				}
				return lc.Write(benchTable, hot, []uint64{v[0] + 1, v[1]})
			})
		})
		if err != nil && err != errScriptGaveUp {
			panic(err)
		}
	}
	accs := make([]tx.Access, adaptNRec)
	next := uint64(0) // cold keys: node 1's other keys, taken in turn
	read := func(first uint64, bumps int) {
		for j := range accs {
			accs[j] = tx.Access{Table: benchTable, Key: hot + 1 + next%(adaptPerNode-1)}
			next++
		}
		if first != 0 {
			accs[0].Key = first
		}
		attempts := 0
		must(reader.Exec(func(t1 *tx.Tx) error {
			if err := t1.Stage(accs...); err != nil {
				return err
			}
			if attempts++; attempts <= bumps {
				bump()
			}
			return t1.Execute(func(lc *tx.Local) error {
				for _, a := range accs {
					if _, err := lc.Read(benchTable, a.Key); err != nil {
						return err
					}
				}
				return nil
			})
		}))
	}
	for round := 0; round < adaptScriptRounds; round++ {
		read(hot, losses)
		for k := 0; k < adaptScriptCold; k++ {
			read(0, 0)
		}
	}
	return adaptCollect(rt, before, adaptScriptRounds*(1+adaptScriptCold))
}

func init() {
	Register(Experiment{ID: "adaptive", Title: "Adaptive read-arm selection", Run: runAdaptive})
}
