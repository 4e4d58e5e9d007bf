package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drtm"
)

// The obs experiment exercises the redesigned public observability API
// end-to-end: it opens a DB through drtm.MustOpen, drives a contended
// mixed workload (cross-node hot-pair transfers + overlapping same-node
// batches + read-only audits), and renders the db.Stats() delta — the
// abort-cause breakdown, the RDMA verb counts, the lease protocol events,
// and the per-phase latency percentiles. This is the table cmd/drtm-bench
// prints when diagnosing a workload, and it doubles as an end-to-end proof
// that every counter is wired: the smoke test asserts the conflict rows
// are nonzero.
func init() {
	Register(Experiment{
		ID:    "obs",
		Title: "Observability: abort causes, RDMA verbs, lease events, phase latency",
		Run:   runObsExp,
	})
}

func runObsExp(o Options) *Result {
	const (
		nodes   = 2
		workers = 2
		keys    = 20
		tbl     = 1
	)
	rounds := 400
	if o.Quick {
		rounds = 80
	}

	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		LeaseMicros: simLeaseMicros, ROLeaseMicros: simROLeaseMicros,
	}, func(table int, key uint64) int { return int(key) % nodes })
	defer db.Close()

	db.CreateHashTable(tbl, 1024, 1)
	for k := uint64(1); k <= keys; k++ {
		if err := db.Load(tbl, k, []uint64{1000}); err != nil {
			panic(err)
		}
	}

	base := db.Stats() // population noise stays out of the delta

	var batches [nodes]atomic.Int64 // same-node batches finished, per node
	var wg sync.WaitGroup
	for n := 0; n < db.Nodes(); n++ {
		for w := 0; w < db.WorkersPerNode(); w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				e := db.Executor(n, w)
				var mine []uint64
				for k := uint64(1); k <= keys; k++ {
					if int(k)%nodes == n {
						mine = append(mine, k)
					}
				}
				for i := 0; i < rounds; i++ {
					// Cross-node transfer over the hot pair: races the
					// remote lock/lease CAS against the other node.
					_ = e.Exec(func(t *drtm.Tx) error {
						if err := t.W(tbl, 1); err != nil {
							return err
						}
						if err := t.W(tbl, 2); err != nil {
							return err
						}
						return t.Execute(func(lc *drtm.Local) error {
							f, _ := lc.Read(tbl, 1)
							g, _ := lc.Read(tbl, 2)
							if f[0] < 1 {
								return nil
							}
							if err := lc.Write(tbl, 1, []uint64{f[0] - 1}); err != nil {
								return err
							}
							return lc.Write(tbl, 2, []uint64{g[0] + 1})
						})
					})
					// Same-node batch over every local record. The region
					// stays open until the sibling worker has committed a
					// batch of its own (or, the sibling being done or backing
					// off, for 200 us), so the HTM working sets genuinely
					// collide however fast a region runs (stands in for
					// coherence-interleaved regions on real hardware).
					_ = e.Exec(func(t *drtm.Tx) error {
						for _, k := range mine {
							if err := t.W(tbl, k); err != nil {
								return err
							}
						}
						return t.Execute(func(lc *drtm.Local) error {
							vals := make([][]uint64, len(mine))
							for j, k := range mine {
								v, err := lc.Read(tbl, k)
								if err != nil {
									return err
								}
								vals[j] = v
							}
							seen := batches[n].Load()
							for open := time.Now(); batches[n].Load() == seen && time.Since(open) < 200*time.Microsecond; {
								runtime.Gosched()
							}
							for j, k := range mine {
								if err := lc.Write(tbl, k, vals[j]); err != nil {
									return err
								}
							}
							return nil
						})
					})
					batches[n].Add(1)
					// Read-only audit over the other node's records.
					_ = e.ExecRO(func(ro *drtm.RO) error {
						for k := uint64(1); k <= keys; k++ {
							if int(k)%nodes != n {
								if _, err := ro.Read(tbl, k); err != nil {
									return err
								}
							}
						}
						return nil
					})
				}
			}(n, w)
		}
	}
	wg.Wait()

	st := db.Stats().Delta(base)

	res := &Result{
		ID:      "obs",
		Title:   "Observability: abort causes, RDMA verbs, lease events, phase latency",
		Headers: []string{"group", "metric", "value"},
	}
	pctOf := func(part, whole int64) string {
		if whole == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	count := func(group, metric string, v int64) {
		res.AddRow(group, metric, fmt.Sprintf("%d", v))
	}

	count("tx", "commits", st.Commits)
	count("tx", "retries", st.Retries)
	count("tx", "fallbacks", st.Fallbacks)
	count("tx", "ro-commits", st.ROCommits)
	count("tx", "ro-retries", st.RORetries)

	count("htm", "commits", st.HTMCommits)
	count("htm", "aborts", st.HTMAborts)
	abortCause := func(name string, v int64) {
		res.AddRow("htm-abort", name,
			fmt.Sprintf("%d (%s of aborts)", v, pctOf(v, st.HTMAborts)))
	}
	abortCause("conflict", st.ConflictAborts)
	abortCause("capacity", st.CapacityAborts)
	abortCause("locked", st.LockedAborts)
	abortCause("lease", st.LeaseAborts)
	abortCause("explicit", st.ExplicitAborts)

	count("lease", "grants", st.LeaseGrants)
	count("lease", "shares", st.LeaseShares)
	count("lease", "confirms", st.LeaseConfirms)
	count("lease", "confirm-fails", st.LeaseConfirmFails)
	count("lease", "expiries", st.LeaseExpiries)
	count("lease", "lock-conflicts", st.RemoteLockConflicts)

	count("rdma", "reads", st.RDMAReads)
	count("rdma", "writes", st.RDMAWrites)
	count("rdma", "cas", st.RDMACASes)
	count("rdma", "faa", st.RDMAFAAs)
	count("rdma", "msgs", st.VerbsMsgs)

	lat := func(name string, l drtm.Latency) {
		res.AddRow("latency", name,
			fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v",
				l.Count, l.P50, l.P95, l.P99, l.Max))
	}
	lat("lock-remote", st.LockRemoteLatency)
	lat("htm-region", st.HTMRegionLatency)
	lat("commit-remotes", st.CommitLatency)
	lat("total", st.TotalLatency)

	res.Note("latency is modeled (virtual-clock) time; counters are real protocol events")
	res.Note("workload: %d rounds/worker of hot-pair transfers + colliding local batches + RO audits on %dx%d",
		rounds, nodes, workers)
	return res
}
