package rdma

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/vtime"
)

// Golden overlap charging: a polled wave of N same-destination READs costs
// the slowest completion plus one doorbell per WR, not N round trips.
func TestBatchOverlapGolden(t *testing.T) {
	const n = 8
	f := newTestFabric(2)
	var clk vtime.Clock
	qp := f.NewQP(0, &clk)
	sq := qp.NewSendQueue(n)

	for i := 0; i < n; i++ {
		sq.PostRead(1, 0, 0, make([]uint64, 8))
	}
	wrs := sq.Poll()
	if len(wrs) != n {
		t.Fatalf("Poll returned %d WRs, want %d", len(wrs), n)
	}
	m := f.Model()
	want := m.RDMARead(64) + time.Duration(n*m.DoorbellNS)
	if got := clk.Now(); got != want {
		t.Fatalf("batched charge = %v, want max+N*doorbell = %v", got, want)
	}

	// The window=1 control arm degenerates to one round trip per WR.
	clk.Reset()
	serial := qp.NewSendQueue(1)
	for i := 0; i < n; i++ {
		serial.PostRead(1, 0, 0, make([]uint64, 8))
	}
	serial.Poll()
	want = time.Duration(n) * (m.RDMARead(64) + time.Duration(m.DoorbellNS))
	if got := clk.Now(); got != want {
		t.Fatalf("window=1 charge = %v, want N serial round trips = %v", got, want)
	}
}

// Posting more WRs than the window splits the queue into waves in post
// order, each polled (and charged) as its own doorbell batch.
func TestBatchWavesRespectWindow(t *testing.T) {
	f := newTestFabric(2)
	var clk vtime.Clock
	qp := newCountedQP(f, 0, &clk)
	sq := qp.NewSendQueue(4)

	for i := 0; i < 10; i++ {
		sq.PostRead(1, 0, 0, make([]uint64, 1))
	}
	sq.Poll()
	if got := qp.Obs.Count(obs.EvRDMABatch); got != 3 {
		t.Fatalf("Batches = %d, want 3 waves of (4,4,2)", got)
	}
	m := f.Model()
	read := m.RDMARead(8)
	want := 2*(read+time.Duration(4*m.DoorbellNS)) + read + time.Duration(2*m.DoorbellNS)
	if got := clk.Now(); got != want {
		t.Fatalf("charge = %v, want %v", got, want)
	}
	if sq.Pending() != 0 {
		t.Fatalf("Pending = %d after Poll, want 0", sq.Pending())
	}
}

// Faults act per WR at completion time: inside one polled wave a failed WR
// reports ErrTimeout with no memory side effect, everything posted behind it to
// the same node is flushed, the WRs to the other node land, and the wave's
// charge absorbs the timeout.
func TestBatchPartialCompletionFault(t *testing.T) {
	f := newTestFabric(3)
	plan := NewFaultPlan(7)
	plan.NodeRule(1, FaultRule{FailProb: 0.5})
	f.SetFaultPlan(plan)
	var clk vtime.Clock
	qp := f.NewQP(0, &clk)
	sq := qp.NewSendQueue(16)

	for i := 0; i < 16; i++ {
		sq.PostWrite(1+i%2, 0, memory.Offset(i), []uint64{uint64(100 + i)})
	}
	wrs := sq.Poll()

	var failed, landed int
	probe := f.NewQP(0, nil) // fault-free reader
	plan.Clear()
	for i, wr := range wrs {
		var got [1]uint64
		probe.Read(wr.Node, 0, memory.Offset(i), got[:])
		switch {
		case wr.Err != nil && wr.Node == 2:
			t.Fatalf("WR %d to the fault-free node failed with %v", i, wr.Err)
		case wr.Err != nil:
			want := error(ErrFlushed)
			if failed == 0 {
				want = ErrTimeout
			}
			if wr.Err != want {
				t.Fatalf("failure %d of the chain to node 1 (WR %d) is %v, want %v", failed+1, i, wr.Err, want)
			}
			failed++
			if got[0] != 0 {
				t.Fatalf("WR %d failed with %v but wrote %d", i, wr.Err, got[0])
			}
		default:
			landed++
			if failed > 0 && wr.Node == 1 {
				t.Fatalf("WR %d landed on node 1 behind a failed one", i)
			}
			if got[0] != uint64(100+i) {
				t.Fatalf("WR %d completed but memory = %d, want %d", i, got[0], 100+i)
			}
		}
	}
	if failed == 0 || landed <= 8 {
		t.Fatalf("want a partially completed chain to node 1, got failed=%d landed=%d", failed, landed)
	}
	// A failed WR charges the full modeled timeout, which dominates the wave.
	if got, min := clk.Now(), time.Duration(f.Model().TimeoutNS); got < min {
		t.Fatalf("wave with faults charged %v, want >= timeout %v", got, min)
	}
}

// The connection's error state, position by position: with the k-th of eight
// chained WRITEs to node 1 scripted to fail, exactly the first k-1 land, the
// k-th times out, the rest are flushed — memory untouched, no verb and no
// fault counted for them, no fault drawn: the plan's next fault, scripted for
// the link's very next verb, is still there for the Poll after — and the
// WRITEs to node 2 posted between them all land. A window of 1 and a window of
// 16 leave the same memory, and the error state ends with the Poll.
func TestFlushBehindFailedWR(t *testing.T) {
	const chain = 8
	run := func(window, k int) (mem [2][chain]uint64) {
		f := newTestFabric(3)
		plan := NewFaultPlan(1)
		plan.ScriptFaults(0, 1, k, k+1)
		f.SetFaultPlan(plan)
		qp := newCountedQP(f, 0, nil)
		sq := qp.NewSendQueue(window)
		for i := 0; i < chain; i++ {
			sq.PostWrite(1, 0, memory.Offset(i), []uint64{uint64(100 + i)})
			sq.PostWrite(2, 0, memory.Offset(i), []uint64{uint64(200 + i)})
		}
		for i, wr := range sq.Poll() {
			pos, want := i/2+1, error(nil)
			switch {
			case wr.Node == 1 && pos == k:
				want = ErrTimeout
			case wr.Node == 1 && pos > k:
				want = ErrFlushed
			}
			if wr.Err != want {
				t.Fatalf("window %d, fault at %d: WR %d to node %d completed with %v, want %v",
					window, k, pos, wr.Node, wr.Err, want)
			}
		}
		if w, n := qp.Obs.Count(obs.EvRDMAWrite), int64(chain+k-1); w != n {
			t.Fatalf("window %d, fault at %d: %d WRITEs counted, want %d (flushed ones are not verbs)", window, k, w, n)
		}
		// The flushed WRs drew nothing: the link's verb k+1, scripted to fail,
		// is the next one posted. And the error state does not outlive a Poll.
		for i, want := range []error{ErrTimeout, nil} {
			wr := sq.PostWrite(1, 0, chain, []uint64{7})
			if sq.Poll(); wr.Err != want {
				t.Fatalf("window %d, fault at %d: WRITE %d after the chain's Poll completed with %v, want %v", window, k, i+1, wr.Err, want)
			}
		}
		if n := qp.Obs.Count(obs.EvVerbFault); n != 2 {
			t.Fatalf("window %d, fault at %d: %d faults counted, want the two that were drawn", window, k, n)
		}
		for n := range mem {
			qp.Read(1+n, 0, 0, mem[n][:])
		}
		return mem
	}
	for k := 1; k <= chain; k++ {
		wide, serial := run(16, k), run(1, k)
		if wide != serial {
			t.Fatalf("fault at %d: window 16 left %v, window 1 left %v", k, wide, serial)
		}
		for i := 0; i < chain; i++ {
			want := uint64(100 + i)
			if i+1 >= k {
				want = 0
			}
			if wide[0][i] != want || wide[1][i] != uint64(200+i) {
				t.Fatalf("fault at %d: word %d = %d on node 1 (want %d), %d on node 2 (want %d)",
					k, i, wide[0][i], want, wide[1][i], 200+i)
			}
		}
	}
}

// A CAS and an FAA flushed behind a failed WR report no prior value and no
// swap, whatever an earlier use left in the work request.
func TestFlushedAtomicsReportNothing(t *testing.T) {
	f := newTestFabric(2)
	plan := NewFaultPlan(1)
	plan.LinkRule(0, 1, FaultRule{FailProb: 1})
	f.SetFaultPlan(plan)
	sq := f.NewQP(0, nil).NewSendQueue(0)
	sq.PostWrite(1, 0, 0, []uint64{5})
	cas := sq.Post(&WR{Op: OpCAS, Node: 1, Off: 1, Old: 0, New: 9, Prev: 3, Swapped: true})
	faa := sq.PostFAA(1, 0, 2, 1)
	sq.Poll()
	for _, wr := range []*WR{cas, faa} {
		if wr.Err != ErrFlushed || wr.Prev != 0 || wr.Swapped || wr.CostNS != 0 {
			t.Fatalf("%v behind a failed WRITE: err %v prev %d swapped %v cost %d", wr.Op, wr.Err, wr.Prev, wr.Swapped, wr.CostNS)
		}
	}
	plan.Clear()
	var got [3]uint64
	f.NewQP(0, nil).Read(1, 0, 0, got[:])
	if got != [3]uint64{} {
		t.Fatalf("memory = %v after a failed head and two flushed atomics, want untouched", got)
	}
}

// Concurrent posters over independent send queues to a shared destination:
// exercised under -race by `make race`.
func TestBatchConcurrentSendQueues(t *testing.T) {
	f := newTestFabric(3)
	plan := NewFaultPlan(11)
	plan.NodeRule(2, FaultRule{FailProb: 0.2})
	f.SetFaultPlan(plan)

	var wg sync.WaitGroup
	var timeouts, flushed atomic.Int64
	sh := obs.NewShard() // the four posters' QPs count into one shard
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var clk vtime.Clock
			qp := f.NewQP(g%2, &clk)
			qp.Obs = sh
			sq := qp.NewSendQueue(8)
			for round := 0; round < 50; round++ {
				for i := 0; i < 8; i++ {
					sq.PostFAA(2, 0, 0, 1)
				}
				for _, wr := range sq.Poll() {
					switch wr.Err {
					case nil:
					case ErrTimeout:
						timeouts.Add(1)
					case ErrFlushed:
						flushed.Add(1)
					default:
						t.Errorf("goroutine %d: unexpected error %v", g, wr.Err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	plan.Clear()
	var got [1]uint64
	f.NewQP(0, nil).Read(2, 0, 0, got[:])
	if faults := sh.Count(obs.EvVerbFault); faults != timeouts.Load() || faults == 0 || flushed.Load() == 0 {
		t.Fatalf("%d faults counted for %d timeouts and %d flushed WRs: want one per timeout, and some of each",
			faults, timeouts.Load(), flushed.Load())
	}
	if want := uint64(4*50*8 - timeouts.Load() - flushed.Load()); got[0] != want {
		t.Fatalf("FAA sum = %d, want %d (1600 posts - %d timeouts - %d flushed)", got[0], want, timeouts.Load(), flushed.Load())
	}
}

// A detached poll completes every WR at once but charges only the doorbells of
// its last wave, leaving that wave's slowest completion in flight; the earlier
// waves are awaited. The connection completes work in post order, so the next
// waited verb — a READ, a wave, a Call — ends no earlier than the detached
// work, and pays what is left of it as rdma.inflight_wait_ns. CPU work, a
// LocalCAS, waits for nothing.
func TestPollDetached(t *testing.T) {
	f := newTestFabric(2)
	m := f.Model()
	var clk vtime.Clock
	qp := newCountedQP(f, 0, &clk)
	sq := qp.NewSendQueue(4)
	sq.Stage = obs.StagePublish
	for i := 0; i < 6; i++ {
		sq.PostWrite(1, 0, memory.Offset(8*i), []uint64{uint64(i + 1)})
	}
	sq.PollDetached()
	for i := 0; i < 6; i++ {
		if w := f.region(1, 0).LoadWord(memory.Offset(8 * i)); w != uint64(i+1) {
			t.Fatalf("word %d = %d once the detached poll returned, want %d", i, w, i+1)
		}
	}
	write := int64(m.RDMAWrite(8))
	if got, want := int64(clk.Now()), write+4*m.DoorbellNS+2*m.DoorbellNS; got != want {
		t.Fatalf("charged %d ns, want the first wave awaited and the last wave's doorbells: %d", got, want)
	}
	if n := qp.Obs.Count(obs.EvDetached); n != 1 {
		t.Fatalf("%d detached, want the last wave", n)
	}

	// A LocalCAS is CPU work; a READ posted next completes after the WRITE.
	t0 := clk.Now()
	qp.LocalCAS(0, 0, 0, 0)
	if got := int64(clk.Now() - t0); got != m.LocalCASNS {
		t.Fatalf("LocalCAS behind a detached wave took %d ns, want %d", got, m.LocalCASNS)
	}
	t0 = clk.Now()
	qp.Read(1, 0, 0, make([]uint64, 1))
	left := write - m.LocalCASNS
	if got, read := int64(clk.Now()-t0), int64(m.RDMARead(8)); got != max(read, left) || qp.Obs.Count(obs.EvInflightWaitNS) != 0 {
		t.Fatalf("READ behind %d ns in flight took %d ns, want %d", left, got, max(read, left))
	}

	// A slow link makes the detached WRITE outlast the READ: the READ pays the
	// difference, once.
	plan := NewFaultPlan(1)
	plan.LinkRule(0, 1, FaultRule{ExtraNS: 4_000})
	f.SetFaultPlan(plan)
	sq.PostWrite(1, 0, 0, []uint64{7})
	sq.PollDetached()
	f.SetFaultPlan(nil)
	t0 = clk.Now()
	qp.Read(0, 0, 0, make([]uint64, 1))
	read := int64(m.RDMARead(8))
	if got, waited := int64(clk.Now()-t0), qp.Obs.Count(obs.EvInflightWaitNS); got != write+4_000 || waited != write+4_000-read {
		t.Fatalf("READ behind %d ns in flight took %d ns and waited %d", write+4_000, got, waited)
	}
	t0 = clk.Now()
	qp.Read(0, 0, 0, make([]uint64, 1))
	if got := int64(clk.Now() - t0); got != read {
		t.Fatalf("a second READ took %d ns, want %d: nothing is in flight any more", got, read)
	}

	// A wave with a failed WR is charged as awaited, timeout and all.
	plan = NewFaultPlan(1)
	plan.ScriptFaults(0, 1, 1)
	f.SetFaultPlan(plan)
	t0 = clk.Now()
	sq.PostWrite(1, 0, 0, []uint64{8})
	if wrs := sq.PollDetached(); !errors.Is(wrs[0].Err, ErrTimeout) {
		t.Fatalf("scripted WRITE completed with %v", wrs[0].Err)
	}
	f.SetFaultPlan(nil)
	if got := int64(clk.Now() - t0); got != m.TimeoutNS+m.DoorbellNS || qp.Obs.Count(obs.EvDetached) != 2 {
		t.Fatalf("failed wave charged %d ns, %d detached, want its timeout awaited", got, qp.Obs.Count(obs.EvDetached))
	}

	// A clock that went back (a harness resetting it) has nothing in flight.
	sq.PostWrite(1, 0, 0, []uint64{9})
	sq.PollDetached()
	clk.Reset()
	qp.Read(1, 0, 0, make([]uint64, 1))
	if got := int64(clk.Now()); got != read {
		t.Fatalf("READ after a clock reset took %d ns, want %d", got, read)
	}
}

// TestPollDetachedIdleSettle: a QP is idle while nothing it left in flight is
// outstanding at the clock's reading, and Settle waits out what is, paying
// exactly what is left of it.
func TestPollDetachedIdleSettle(t *testing.T) {
	f := newTestFabric(2)
	write := int64(f.Model().RDMAWrite(8))
	var clk vtime.Clock
	qp := newCountedQP(f, 0, &clk)
	sq := qp.NewSendQueue(4)
	detach := func() {
		sq.PostWrite(1, 0, 0, []uint64{1})
		sq.PollDetached()
	}
	t0 := clk.Now()
	if qp.Settle(); !qp.Idle() || clk.Now() != t0 {
		t.Fatalf("a fresh QP: idle %v, Settle charged %v", qp.Idle(), clk.Now()-t0)
	}
	detach()
	clk.ChargeNS(write - 1)
	if qp.Idle() {
		t.Fatal("idle 1 ns before the detached WRITE lands")
	}
	clk.ChargeNS(1)
	if !qp.Idle() {
		t.Fatal("not idle once the detached WRITE landed")
	}

	detach()
	clk.ChargeNS(100)
	t0 = clk.Now()
	qp.Settle()
	if got, waited := int64(clk.Now()-t0), qp.Obs.Count(obs.EvInflightWaitNS); got != write-100 || waited != got || !qp.Idle() {
		t.Fatalf("Settle 100 ns after a detached WRITE took %d ns and waited %d, want %d; idle %v", got, waited, write-100, qp.Idle())
	}
	t0 = clk.Now()
	if qp.Settle(); clk.Now() != t0 {
		t.Fatalf("a second Settle charged %v, want nothing", clk.Now()-t0)
	}

	// A clock that went back (a harness resetting it) has nothing in flight.
	detach()
	clk.Reset()
	if !qp.Idle() {
		t.Fatal("not idle after a clock reset")
	}
}

// Send is Call's one-way form: the handler runs before Send returns, the
// worker pays one doorbell, and the request's flight is left in flight — a
// Call posted next returns its reply no earlier than the request landed.
func TestSendOneWay(t *testing.T) {
	f := newTestFabric(2)
	m := f.Model()
	var got []int
	f.Serve(1, func(from int, req any) any {
		got = append(got, req.(int))
		return nil
	})
	var clk vtime.Clock
	qp := newCountedQP(f, 0, &clk)
	if err := qp.Send(1, 5, 40_000); err != nil || len(got) != 1 {
		t.Fatalf("Send = %v, handler saw %v", err, got)
	}
	if int64(clk.Now()) != m.DoorbellNS || qp.Obs.Count(obs.EvVerbsMsg) != 1 || qp.Obs.Count(obs.EvDetached) != 1 {
		t.Fatalf("Send charged %v, %d messages, %d detached; want one doorbell, one of each", clk.Now(),
			qp.Obs.Count(obs.EvVerbsMsg), qp.Obs.Count(obs.EvDetached))
	}
	t0 := clk.Now()
	if _, err := qp.Call(1, 6, 8, 8); err != nil {
		t.Fatal(err)
	}
	left, call := int64(m.VerbsMsg(40_000)), int64(2*m.VerbsMsg(8))
	if d := int64(clk.Now() - t0); d != max(left, call) || qp.Obs.Count(obs.EvInflightWaitNS) != left-call {
		t.Fatalf("Call behind a %d ns Send took %d ns and waited %d, want %d", left, d,
			qp.Obs.Count(obs.EvInflightWaitNS), max(left, call))
	}

	f.SetNodeDown(1, true)
	t0 = clk.Now()
	if err := qp.Send(1, 7, 8); !errors.Is(err, ErrNodeUnreachable) || len(got) != 2 {
		t.Fatalf("Send to a down node = %v, handler saw %v", err, got)
	}
	if d := int64(clk.Now() - t0); d != m.TimeoutNS {
		t.Fatalf("failed Send charged %d ns, want the timeout %d", d, m.TimeoutNS)
	}
}
