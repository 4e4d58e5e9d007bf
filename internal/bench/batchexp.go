package bench

import (
	"fmt"

	"drtm/internal/obs"
	"drtm/internal/tx"
	"drtm/internal/vtime"
)

// runBatch measures the async verb engine's doorbell-batching win on the
// remote lock/read phase (Section 7.1's one-sided verbs, now posted as
// waves). A single worker stages N remote read records per transaction with
// Tx.Stage; the send-queue window is the independent variable. window=1 is
// the control arm: every verb is posted and polled alone, reproducing the
// pre-batching round trip per op. The reported cost is the PhaseLockRemote
// histogram mean, i.e. modeled ns spent in Start per transaction.
func runBatch(o Options) *Result {
	res := &Result{
		ID:    "batch",
		Title: "Doorbell batching: remote lock/read phase cost vs send-queue window",
		Headers: []string{"records", "window", "lock-phase/txn", "batches/txn",
			"vs window=1"},
	}
	txns := 400
	if o.Quick {
		txns = 100
	}
	model := vtime.DefaultModel()

	for _, n := range []int{8, 16} {
		var serial float64
		for _, window := range []int{1, 16} {
			mean, batches := measureBatch(o, txns, n, window)
			ratio := "1.00x"
			if window == 1 {
				serial = mean
			} else {
				ratio = fmt.Sprintf("%.2fx", mean/serial)
			}
			res.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", window),
				fmt.Sprintf("%.1fus", mean/1e3),
				fmt.Sprintf("%.1f", batches), ratio)
		}
	}
	res.Note("serial round trip per record: lookup READ %dns + lock/lease CAS %dns + prefetch READ %dns",
		model.RDMAReadBaseNS, model.RDMACASNS, model.RDMAReadBaseNS)
	res.Note("batched waves charge max(completions) + %dns doorbell per WR, so the phase cost", model.DoorbellNS)
	res.Note("approaches one round trip per pipeline stage instead of one per record")

	// Ordered / structural rows: N remote ordered inserts (and N remote ordered
	// writes) declared row by row versus with one Stage. One Stage resolves
	// all N keys with one shipped message and locks them in one CAS wave;
	// window=1 is again the serial control: one key per message, one verb per
	// poll — the per-row cost. (batches/txn counts the commit waves too.)
	for _, op := range []orderedOp{orderedInsert, orderedWrite} {
		for _, n := range []int{1, 4, 8} {
			if op == orderedWrite && n != 4 {
				continue
			}
			for _, window := range []int{16, 1} {
				perRow := measureOrderedBatch(o, txns, n, window, op, false)
				staged := measureOrderedBatch(o, txns, n, window, op, true)
				for _, arm := range []struct {
					declare string
					m       orderedBatchCost
				}{{"per row", perRow}, {"one Stage", staged}} {
					res.AddRow(fmt.Sprintf("%d ordered %s, %s", n, op, arm.declare),
						fmt.Sprintf("%d", window), fmt.Sprintf("%.1fus", arm.m.lockNS/1e3),
						fmt.Sprintf("%.1f", arm.m.batches),
						fmt.Sprintf("%.2fx per row, %.1f msgs", arm.m.lockNS/perRow.lockNS, arm.m.msgs))
				}
			}
		}
	}
	res.Note("a shipped message: %dns each way + %dns per key for the host's tree operation",
		model.VerbsMsgBaseNS, model.BTreeOpNS)

	// Commit row: two remote records whose entries span two cache lines — per
	// record the value and the release, both WRITEs. One doorbell chain polled
	// once; window=1 posts and polls each on its own. (The cost is the commit
	// phase, the batches its polled waves.)
	var serialCommit float64
	for _, window := range []int{1, 16} {
		commitNS, waves := measureCommitBatch(o, txns, window)
		ratio := "1.00x"
		if window == 1 {
			serialCommit = commitNS
		} else {
			ratio = fmt.Sprintf("%.2fx", commitNS/serialCommit)
		}
		res.AddRow("commit of 2 multi-line records", fmt.Sprintf("%d", window),
			fmt.Sprintf("%.1fus", commitNS/1e3), fmt.Sprintf("%.1f", waves), ratio)
	}
	res.Note("the commit's chain is WRITEs only (%dns + payload): the slowest one plus a doorbell each", model.RDMAWriteBaseNS)
	return res
}

// measureBatch runs txns transactions of n fresh remote read records on one
// worker under the given send-queue window and returns the mean
// PhaseLockRemote ns per transaction plus polled batches per transaction.
func measureBatch(o Options, txns, n, window int) (meanNS, batchesPerTx float64) {
	const perNode = 8192
	rt, stop := buildMicro(2, 1, perNode, nil, func(rt *tx.Runtime) {
		rt.BatchWindow = window
		// Location-cache hits would drop lookups off the fabric after the
		// first pass; every key below is touched once, but keep the
		// comparison honest even if key math changes.
		rt.CacheBudgetBytes = 0
	})
	defer stop()
	resetClocks(rt)
	e := rt.Executor(0, 0)
	before := rt.C.Obs.Snapshot()

	next := uint64(perNode) // keys perNode+1..2*perNode are homed on node 1
	for t := 0; t < txns; t++ {
		accs := make([]tx.Access, n)
		for j := range accs {
			next = next%uint64(2*perNode) + 1
			if next <= perNode {
				next = perNode + 1
			}
			accs[j] = tx.Access{Table: benchTable, Key: next}
		}
		err := e.Exec(func(t1 *tx.Tx) error {
			if err := t1.Stage(accs...); err != nil {
				return err
			}
			return t1.Execute(func(lc *tx.Local) error {
				for _, a := range accs {
					if _, err := lc.Read(benchTable, a.Key); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			panic(err)
		}
	}

	sn := rt.C.Obs.Snapshot().Delta(before)
	lock := sn.Phases[obs.PhaseLockRemote]
	if lock.Count == 0 {
		return 0, 0
	}
	return float64(lock.Sum) / float64(lock.Count),
		float64(sn.Counters[obs.EvRDMABatch]) / float64(lock.Count)
}

// benchWide is the batch experiment's table of two-line rows.
const (
	benchWide      = benchTable + 2
	benchWideWords = 8
)

// measureCommitBatch runs txns transactions that each rewrite two remote
// two-line rows under the given send-queue window and returns the mean
// PhaseCommit ns and the polled publish waves per transaction.
func measureCommitBatch(o Options, txns, window int) (commitNS, waves float64) {
	const perNode = 64
	rt, stop := buildMicro(2, 1, perNode, nil,
		func(rt *tx.Runtime) { rt.BatchWindow = window })
	defer stop()
	rt.DefineUnordered(benchWide, perNode, perNode, 2*perNode, benchWideWords)
	host := rt.C.Node(1).Unordered(benchWide)
	for k := uint64(perNode + 1); k <= 2*perNode; k++ { // homed on node 1
		if err := host.Insert(k, make([]uint64, benchWideWords)); err != nil {
			panic(err)
		}
	}
	resetClocks(rt)
	e := rt.Executor(0, 0)
	before := rt.C.Obs.Snapshot()
	val := make([]uint64, benchWideWords)
	for t := 0; t < txns; t++ {
		a := uint64(perNode + 1 + 2*(t%(perNode/2)))
		val[0] = uint64(t)
		err := e.Exec(func(t1 *tx.Tx) error {
			if err := t1.Stage(tx.Access{Table: benchWide, Key: a, Write: true},
				tx.Access{Table: benchWide, Key: a + 1, Write: true}); err != nil {
				return err
			}
			return t1.Execute(func(lc *tx.Local) error {
				if err := lc.Write(benchWide, a, val); err != nil {
					return err
				}
				return lc.Write(benchWide, a+1, val)
			})
		})
		if err != nil {
			panic(err)
		}
	}
	sn := rt.C.Obs.Snapshot().Delta(before)
	commit := sn.Phases[obs.PhaseCommit]
	if commit.Count == 0 {
		return 0, 0
	}
	return float64(commit.Sum) / float64(commit.Count),
		float64(sn.Stages[obs.StagePublish].Waves) / float64(commit.Count)
}

func init() {
	Register(Experiment{ID: "batch", Title: "Doorbell batching win", Run: runBatch})
}

// orderedOp is what an ordered-table batch row declares.
type orderedOp string

const (
	orderedInsert orderedOp = "insert"
	orderedWrite  orderedOp = "write"
)

// benchOrdered is the batch experiment's ordered table.
const benchOrdered = benchTable + 1

// orderedBatchCost is one arm of the ordered batch rows, per transaction.
type orderedBatchCost struct {
	lockNS  float64 // mean PhaseLockRemote: shipped resolution + CAS waves
	msgs    float64 // two-sided messages
	batches float64 // polled doorbell batches
}

// measureOrderedBatch runs txns transactions that each declare n remote
// ordered rows — fresh keys to insert, or existing rows to write — either row
// by row (WInsert / W) or with one Stage, under the given send-queue window.
func measureOrderedBatch(o Options, txns, n, window int, op orderedOp, staged bool) orderedBatchCost {
	const perNode = 8192
	rt, stop := buildMicro(2, 1, perNode, nil, func(rt *tx.Runtime) {
		rt.BatchWindow = window
		rt.DefineOrdered(benchOrdered, 2*perNode, 2)
	})
	defer stop()
	val := []uint64{7, 7}
	if op == orderedWrite {
		host := rt.C.Node(1).Ordered(benchOrdered)
		for k := perNode + 1; k <= 2*perNode; k++ {
			if err := host.Insert(uint64(k), val); err != nil {
				panic(err)
			}
		}
	}
	resetClocks(rt)
	e := rt.Executor(0, 0)
	before := rt.C.Obs.Snapshot()

	next := uint64(perNode) // keys perNode+1..2*perNode are homed on node 1
	accs := make([]tx.Access, n)
	for t := 0; t < txns; t++ {
		for j := range accs {
			next++
			accs[j] = tx.Access{Table: benchOrdered, Key: next, Write: true}
			if op == orderedInsert {
				accs[j] = tx.Access{Table: benchOrdered, Key: next, Insert: val}
			}
		}
		err := e.Exec(func(t1 *tx.Tx) error {
			if staged {
				if err := t1.Stage(accs...); err != nil {
					return err
				}
			} else {
				for _, a := range accs {
					if err := t1.Stage(a); err != nil {
						return err
					}
				}
			}
			return t1.Execute(func(lc *tx.Local) error { return nil })
		})
		if err != nil {
			panic(err)
		}
	}

	sn := rt.C.Obs.Snapshot().Delta(before)
	lock := sn.Phases[obs.PhaseLockRemote]
	if lock.Count == 0 {
		return orderedBatchCost{}
	}
	per := func(v int64) float64 { return float64(v) / float64(lock.Count) }
	return orderedBatchCost{lockNS: per(lock.Sum),
		msgs: per(sn.Counters[obs.EvVerbsMsg]), batches: per(sn.Counters[obs.EvRDMABatch])}
}
