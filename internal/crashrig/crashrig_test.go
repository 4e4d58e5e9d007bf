package crashrig_test

import (
	"errors"
	"testing"
	"time"

	"drtm"
	"drtm/internal/crashrig"
)

// openDB opens a two-node cluster with one worker per node and no tables: the
// steps below are fakes, so the rig is all that runs.
func openDB(t *testing.T) *drtm.DB {
	t.Helper()
	db := drtm.MustOpen(drtm.Options{Nodes: 2, WorkersPerNode: 1}, func(int, uint64) int { return 0 })
	t.Cleanup(db.Close)
	return db
}

// A phase with no host-clock minimum still lasts until its commit target.
func TestPhaseLastsUntilCommitTarget(t *testing.T) {
	db := openDB(t)
	tokens := make(chan struct{})
	run := crashrig.Start(db, func(int, int) func() error {
		return func() error { <-tokens; return nil }
	})
	done := make(chan error, 1)
	go func() { done <- run.Phase(0, 10) }()
	for i := 0; i < 9; i++ {
		tokens <- struct{}{}
	}
	select {
	case err := <-done:
		t.Fatalf("phase ended after 9 commits, its target 10 (err %v)", err)
	case <-time.After(5 * time.Millisecond):
	}
	// The phase may have begun after some of the nine: feed it until it ends.
	for ended := false; !ended; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ended = true
		case tokens <- struct{}{}:
		}
	}
	close(tokens)
	if c, err := run.Stop(); err != nil || c.Commits < 10 {
		t.Fatalf("Stop = %+v, %v; want at least 10 commits and no error", c, err)
	}
}

// A step's error other than ErrNodeDown stops every worker and is returned,
// by the phase under way and by Stop; ErrNodeDown is counted and run past.
func TestErrorStopsEveryWorker(t *testing.T) {
	db := openDB(t)
	boom := errors.New("boom")
	gate := make(chan struct{})
	downs := 0
	run := crashrig.Start(db, func(node, _ int) func() error {
		if node == 1 {
			return func() error { <-gate; return nil }
		}
		return func() error {
			if downs < 3 {
				downs++
				return drtm.ErrNodeDown
			}
			return boom
		}
	})
	phase := make(chan error, 1)
	go func() { phase <- run.Phase(0, 1<<40) }()
	select {
	case err := <-phase:
		if !errors.Is(err, boom) {
			t.Fatalf("Phase = %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the phase under way did not end on the error")
	}
	// Node 1's worker is in its step or has returned; once released, it
	// must not start another.
	close(gate)
	c, err := run.Stop()
	if !errors.Is(err, boom) {
		t.Fatalf("Stop error = %v, want %v", err, boom)
	}
	if c.Commits > 1 || c.DownAborts != 3 {
		t.Fatalf("counts %+v, want at most the one step in flight committed and 3 down aborts", c)
	}
}

// A worker runs nothing while its machine is crashed and resumes after the
// revive; a commit counts toward the outage only between the crash and the
// repair.
func TestCrashIdlesWorkerAndCountsOutage(t *testing.T) {
	db := openDB(t)
	var entered [2]chan struct{}
	var gates [2]chan error // what a waiting step returns
	for n := range gates {
		entered[n], gates[n] = make(chan struct{}), make(chan error)
	}
	quit := make(chan struct{})
	stepDown := make(chan int, 16)
	run := crashrig.Start(db, func(node, _ int) func() error {
		return func() error {
			if !db.C.Node(node).Alive() {
				stepDown <- node
			}
			select {
			case entered[node] <- struct{}{}:
			case <-quit:
				return drtm.ErrNodeDown
			}
			select {
			case err := <-gates[node]:
				return err
			case <-quit:
				return drtm.ErrNodeDown
			}
		}
	})
	// commit lets node n's worker, waiting in its step, commit it, and waits
	// until the worker has counted it and is in its next step.
	commit := func(n int) {
		gates[n] <- nil
		<-entered[n]
	}
	<-entered[0]
	<-entered[1]
	commit(0)
	commit(1)

	polls := 0
	repaired := run.Crash(1, func() bool {
		polls++
		switch {
		case polls == 1:
			// Node 1's worker was inside a step when its machine died; the
			// step fails, and the worker must then idle. Node 0 commits
			// inside the outage.
			gates[1] <- drtm.ErrNodeDown
			commit(0)
		case polls < 6:
			select {
			case <-entered[1]:
				close(quit) // release every step, so Stop returns
				run.Stop()
				t.Fatal("node 1's worker started a step while its machine was down")
			default:
			}
		default:
			db.Revive(1)
			return true
		}
		return false
	})
	if !repaired {
		t.Fatal("Crash did not see the repair")
	}
	<-entered[1] // node 1's worker resumes after the revive
	commit(1)
	commit(0)
	close(quit)
	c, err := run.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if c.Commits != 5 || c.OutageCommits != 1 || c.DownAborts < 1 {
		t.Errorf("counts %+v, want 5 commits of which 1 during the outage, and a down abort", c)
	}
	select {
	case n := <-stepDown:
		t.Errorf("a step of node %d ran while its machine was down", n)
	default:
	}
}
