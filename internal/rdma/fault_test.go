package rdma

import (
	"errors"
	"testing"

	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/vtime"
)

func TestCrashedNodeUnreachable(t *testing.T) {
	f := newTestFabric(2)
	f.RegisterDurable(1, 7, memory.NewArena(100, 64))
	qp := newCountedQP(f, 0, nil)

	// Seed the durable (NVRAM) region before the crash.
	qp.Write(1, 7, 0, []uint64{42})
	f.SetNodeDown(1, true)
	if !f.NodeDown(1) {
		t.Fatal("NodeDown not reported")
	}

	dst := make([]uint64, 1)
	if err := qp.TryRead(1, 0, 0, dst); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("READ of plain region = %v, want ErrNodeUnreachable", err)
	}
	if err := qp.TryWrite(1, 0, 0, []uint64{1}); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("WRITE = %v, want ErrNodeUnreachable", err)
	}
	if _, _, err := qp.TryCAS(1, 0, 0, 0, 1); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("CAS = %v, want ErrNodeUnreachable", err)
	}
	if _, err := qp.TryFAA(1, 0, 0, 1); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("FAA = %v, want ErrNodeUnreachable", err)
	}
	if err := qp.Probe(1); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("Probe = %v, want ErrNodeUnreachable", err)
	}

	// Flush-on-failure: the NVRAM log region stays readable...
	if err := qp.TryRead(1, 7, 0, dst); err != nil {
		t.Fatalf("READ of durable region = %v, want nil", err)
	}
	if dst[0] != 42 {
		t.Fatalf("durable read = %d, want 42", dst[0])
	}
	// ...but not writable: only survivors draining logs are modeled.
	if err := qp.TryWrite(1, 7, 0, []uint64{9}); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("WRITE of durable region = %v, want ErrNodeUnreachable", err)
	}
	if qp.Obs.Count(obs.EvVerbFault) == 0 {
		t.Fatal("fault counter not incremented")
	}

	f.SetNodeDown(1, false)
	if err := qp.TryRead(1, 0, 0, dst); err != nil {
		t.Fatalf("READ after revive = %v", err)
	}
}

// TestCrashedSourceCannotIssueVerbs: fail-stop covers the sender too. A
// crashed node's worker goroutines keep running in the simulator; their
// verbs must fail so zombies cannot mutate live nodes' memory.
func TestCrashedSourceCannotIssueVerbs(t *testing.T) {
	f := newTestFabric(2)
	f.RegisterDurable(1, 7, memory.NewArena(100, 64))
	zombie := f.NewQP(0, nil)
	f.SetNodeDown(0, true)

	if err := zombie.TryWrite(1, 0, 0, []uint64{1}); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("zombie WRITE = %v, want ErrNodeUnreachable", err)
	}
	if _, _, err := zombie.TryCAS(1, 0, 0, 0, 1); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("zombie CAS = %v, want ErrNodeUnreachable", err)
	}
	// Even the durable-read exception is for survivors, not for the dead.
	if err := zombie.TryRead(1, 7, 0, make([]uint64, 1)); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("zombie durable READ = %v, want ErrNodeUnreachable", err)
	}

	f.SetNodeDown(0, false)
	if err := zombie.TryWrite(1, 0, 0, []uint64{1}); err != nil {
		t.Fatalf("WRITE after revive = %v", err)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		f := newTestFabric(2)
		plan := NewFaultPlan(seed)
		plan.NodeRule(1, FaultRule{FailProb: 0.5})
		f.SetFaultPlan(plan)
		qp := f.NewQP(0, nil)
		var outcomes []bool
		for i := 0; i < 200; i++ {
			err := qp.TryWrite(1, 0, 0, []uint64{uint64(i)})
			if err != nil && !errors.Is(err, ErrTimeout) {
				t.Fatalf("unexpected error %v", err)
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverges across identical seeds", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("fails = %d of %d, want a mix", fails, len(a))
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestFaultChargesTimeout(t *testing.T) {
	f := newTestFabric(2)
	plan := NewFaultPlan(1)
	plan.NodeRule(1, FaultRule{FailProb: 1.0})
	f.SetFaultPlan(plan)
	var clk vtime.Clock
	qp := f.NewQP(0, &clk)
	if err := qp.TryRead(1, 0, 0, make([]uint64, 1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := int64(clk.Now()); got != f.Model().TimeoutNS {
		t.Fatalf("charged %d ns, want the %d ns timeout", got, f.Model().TimeoutNS)
	}
}

func TestFaultPlanExtraLatency(t *testing.T) {
	f := newTestFabric(2)
	plan := NewFaultPlan(1)
	plan.LinkRule(0, 1, FaultRule{ExtraNS: 10_000})
	f.SetFaultPlan(plan)
	var clk vtime.Clock
	qp := f.NewQP(0, &clk)
	if err := qp.TryRead(1, 0, 0, make([]uint64, 1)); err != nil {
		t.Fatal(err)
	}
	want := int64(f.Model().RDMARead(8)) + 10_000
	if got := int64(clk.Now()); got != want {
		t.Fatalf("charged %d ns, want %d", got, want)
	}
}

func TestCallNilHandlerIsError(t *testing.T) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	if _, err := qp.Call(1, "x", 8, 8); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("Call = %v, want ErrNoHandler", err)
	}
	if _, err := qp.CallIPoIB(1, "x", 8, 8); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("CallIPoIB = %v, want ErrNoHandler", err)
	}
}

func TestCallToDownNodeIsError(t *testing.T) {
	f := newTestFabric(2)
	f.Serve(1, func(from int, req any) any { return req })
	f.SetNodeDown(1, true)
	qp := f.NewQP(0, nil)
	if _, err := qp.Call(1, "x", 8, 8); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("Call = %v, want ErrNodeUnreachable", err)
	}
}

func TestRegionMissIsError(t *testing.T) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	if err := qp.TryRead(1, 99, 0, make([]uint64, 1)); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
}
