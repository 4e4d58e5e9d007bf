package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drtm"
	"drtm/internal/obs"
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
		Headers: []string{"group", "name", "value"},
	}
	// Every counter of the groups shown, by registry name; a share of a total
	// ("htm.abort.conflict" of "htm.abort") says its part.
	for _, group := range []string{"tx", "ro", "htm", "lease", "lock", "rdma"} {
		for ev := obs.Event(0); int(ev) < obs.NumEvents; ev++ {
			name := ev.String()
			if !strings.HasPrefix(name, group+".") {
				continue
			}
			v := fmt.Sprintf("%d", st.Count(name))
			if i := strings.LastIndexByte(name, '.'); i > len(group) {
				total := st.Count(name[:i])
				share := 0.0
				if total > 0 {
					share = 100 * float64(st.Count(name)) / float64(total)
				}
				v += fmt.Sprintf(" (%.1f%% of %s)", share, name[:i])
			}
			res.AddRow(group, name, v)
		}
	}
	// Every phase that saw the run, but the batch-ops WR counts (rdma.batch).
	for p := obs.Phase(0); int(p) < obs.NumPhases; p++ {
		if l := st.Latency(p.String()); l.Count > 0 && p != obs.PhaseBatchOps {
			res.AddRow("latency", p.String(),
				fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v", l.Count, l.P50, l.P95, l.P99, l.Max))
		}
	}

	res.Note("latency is modeled (virtual-clock) time; counters are real protocol events")
	res.Note("workload: %d rounds/worker of hot-pair transfers + colliding local batches + RO audits on %dx%d",
		rounds, nodes, workers)
	return res
}
