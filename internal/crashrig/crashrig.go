// Package crashrig runs client traffic on a drtm cluster while the caller
// crashes and repairs its machines: the crash-under-traffic harness of the
// chaos and failover experiments and tests. It owns the workers, their
// counts, the phases and the outage; each caller keeps its own options,
// workload, fault rules, repair and audit.
package crashrig

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drtm"
)

// Counts is what the workers' steps returned over a run.
type Counts struct {
	Commits       int64 // steps that returned nil
	OutageCommits int64 // of those, the ones that returned while an outage was open
	DownAborts    int64 // steps that returned drtm.ErrNodeDown
}

// Run is one crash-under-traffic run: a worker per (node, worker) of the
// cluster calls its step in a loop until Stop, or until some step returns an
// error other than drtm.ErrNodeDown, which stops them all.
type Run struct {
	db     *drtm.DB
	stop   chan struct{}
	once   sync.Once
	err    error // the error that stopped the run, written before stop closes
	wg     sync.WaitGroup
	outage atomic.Bool

	commits, outageCommits, downAborts atomic.Int64
}

// Start launches the workers. newStep is called on the caller's goroutine
// once per (node, worker), in order, for that worker's step: one transaction
// or check, nil when it committed. A worker runs no step while its machine is
// crashed (fail-stop), and it looks only between steps.
func Start(db *drtm.DB, newStep func(node, worker int) func() error) *Run {
	r := &Run{db: db, stop: make(chan struct{})}
	for n := 0; n < db.Nodes(); n++ {
		for wk := 0; wk < db.WorkersPerNode(); wk++ {
			r.wg.Add(1)
			go r.work(n, wk, newStep(n, wk))
		}
	}
	return r
}

func (r *Run) work(n, wk int, step func() error) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if !r.db.C.Node(n).Alive() {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		switch err := step(); {
		case err == nil:
			r.commits.Add(1)
			if r.outage.Load() {
				r.outageCommits.Add(1)
			}
		case errors.Is(err, drtm.ErrNodeDown):
			r.downAborts.Add(1)
		default:
			r.halt(fmt.Errorf("node %d worker %d: %w", n, wk, err))
			return
		}
	}
}

// halt stops the run; the first call's error is the run's.
func (r *Run) halt(err error) { r.once.Do(func() { r.err = err; close(r.stop) }) }

// Phase lets the workers run until min has passed on the host clock and they
// have committed target more steps, so a loaded host stretches a phase rather
// than cutting it short. It returns early, with the run's error, once the run
// has stopped.
func (r *Run) Phase(min time.Duration, target int64) error {
	goal := r.commits.Load() + target
	for wait := min; ; wait = time.Millisecond {
		select {
		case <-r.stop:
			return r.err
		case <-time.After(wait):
		}
		if r.commits.Load() >= goal {
			return nil
		}
	}
}

// Crash crashes node victim under the running workers and holds an outage
// open until repaired reports true, asking at once and then every millisecond
// for at most ten seconds. repaired may run the repair itself (a Failover) or
// watch for the failure detector's. Crash reports whether it saw the repair.
func (r *Run) Crash(victim int, repaired func() bool) bool {
	r.outage.Store(true)
	defer r.outage.Store(false)
	r.db.Crash(victim)
	for deadline := time.Now().Add(10 * time.Second); !repaired(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Stop stops the workers, waits for them and reports what their steps did,
// with the error that stopped the run early, if any. It may be called again.
func (r *Run) Stop() (Counts, error) {
	r.halt(nil)
	r.wg.Wait()
	return Counts{r.commits.Load(), r.outageCommits.Load(), r.downAborts.Load()}, r.err
}
