package rdma

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/vtime"
)

func newTestFabric(nodes int) *Fabric {
	f := NewFabric(nodes, vtime.DefaultModel(), AtomicHCA)
	for n := 0; n < nodes; n++ {
		f.Register(n, 0, memory.NewArena(n, 1024))
	}
	return f
}

// newCountedQP is NewQP with a standalone shard attached: the verbs' one tally.
func newCountedQP(f *Fabric, local int, clk *vtime.Clock) *QP {
	qp := f.NewQP(local, clk)
	qp.Obs = obs.NewShard()
	return qp
}

func TestOneSidedReadWrite(t *testing.T) {
	f := newTestFabric(2)
	qp := newCountedQP(f, 0, nil)

	src := []uint64{1, 2, 3}
	qp.Write(1, 0, 10, src)
	dst := make([]uint64, 3)
	qp.Read(1, 0, 10, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	if qp.Obs.Count(obs.EvRDMARead) != 1 || qp.Obs.Count(obs.EvRDMAWrite) != 1 {
		t.Fatal("op counters wrong")
	}
	if n := qp.Obs.Count(obs.EvRDMAReadBytes); n != 24 {
		t.Fatalf("read bytes = %d, want 24", n)
	}
}

func TestOneSidedCAS(t *testing.T) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	prev, ok := qp.CAS(1, 0, 5, 0, 99)
	if !ok || prev != 0 {
		t.Fatalf("CAS = (%d,%v)", prev, ok)
	}
	prev, ok = qp.CAS(1, 0, 5, 0, 100)
	if ok || prev != 99 {
		t.Fatalf("second CAS = (%d,%v), want (99,false)", prev, ok)
	}
}

func TestFAA(t *testing.T) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	if prev := qp.FAA(1, 0, 0, 7); prev != 0 {
		t.Fatalf("FAA prev = %d", prev)
	}
	dst := make([]uint64, 1)
	qp.Read(1, 0, 0, dst)
	if dst[0] != 7 {
		t.Fatalf("after FAA = %d, want 7", dst[0])
	}
}

func TestCostCharging(t *testing.T) {
	f := newTestFabric(2)
	var clk vtime.Clock
	qp := f.NewQP(0, &clk)
	qp.Read(1, 0, 0, make([]uint64, 8))
	m := f.Model()
	want := m.RDMARead(64)
	if got := clk.Now(); got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	clk.Reset()
	qp.CAS(1, 0, 0, 0, 1)
	if got := clk.Now(); got != time.Duration(m.RDMACASNS) {
		t.Fatalf("CAS charged %v, want %v", got, time.Duration(m.RDMACASNS))
	}
}

// TestRDMAAbortsHTM verifies the central coherence property: a one-sided
// write from another node aborts a conflicting HTM transaction on the host.
func TestRDMAAbortsHTM(t *testing.T) {
	f := newTestFabric(2)
	hostArena := f.Endpoint(1).regions.Load().arenas[0]
	eng := htm.NewEngine(htm.Config{})
	qp := f.NewQP(0, nil)

	err := eng.Run(func(tx *htm.Txn) error {
		_ = tx.Read(hostArena, 0)
		qp.Write(1, 0, 0, []uint64{123}) // remote write lands mid-transaction
		return nil
	})
	if ae, ok := htm.IsAbort(err); !ok || ae.Code != htm.AbortConflict {
		t.Fatalf("err = %v, want conflict abort", err)
	}
}

// TestRDMACASMutualExclusion: concurrent RDMA CAS lockers of one word never
// both succeed, across nodes.
func TestRDMACASMutualExclusion(t *testing.T) {
	f := newTestFabric(3)
	var acquired, releases int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			qp := f.NewQP(n, nil)
			for i := 0; i < 200; i++ {
				if _, ok := qp.CAS(0, 0, 0, 0, uint64(n+1)); ok {
					mu.Lock()
					acquired++
					if acquired-releases != 1 {
						t.Errorf("two lock holders at once")
					}
					releases++
					mu.Unlock()
					qp.Write(0, 0, 0, []uint64{0}) // unlock
				}
			}
		}(n)
	}
	wg.Wait()
	if acquired == 0 {
		t.Fatal("no one ever acquired the lock")
	}
}

func TestVerbsCall(t *testing.T) {
	f := newTestFabric(2)
	f.Serve(1, func(from int, req any) any {
		return req.(int) * 2
	})
	var clk vtime.Clock
	qp := newCountedQP(f, 0, &clk)
	got, err := qp.Call(1, 21, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.(int) != 42 {
		t.Fatalf("Call = %v, want 42", got)
	}
	want := 2 * f.Model().VerbsMsg(8)
	if clk.Now() != want {
		t.Fatalf("charged %v, want %v", clk.Now(), want)
	}
	if qp.Obs.Count(obs.EvVerbsMsg) != 1 {
		t.Fatal("msg counter wrong")
	}
}

func TestIPoIBCostsDominateVerbs(t *testing.T) {
	f := newTestFabric(2)
	f.Serve(1, func(from int, req any) any { return req })
	var v1, v2 vtime.Clock
	qpA := f.NewQP(0, &v1)
	qpB := f.NewQP(0, &v2)
	if _, err := qpA.Call(1, 0, 64, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := qpB.CallIPoIB(1, 0, 64, 64); err != nil {
		t.Fatal(err)
	}
	if v2.Now() <= v1.Now()*5 {
		t.Fatalf("IPoIB (%v) should be far slower than verbs (%v)", v2.Now(), v1.Now())
	}
}

type nopSink struct{}

func (nopSink) RemoteAppend(int, []uint64) error { return nil }

// TestEachVerbCountedOnce: every verb kind moves exactly its own events, by
// exactly its own amount, in the issuing QP's shard — through the sync Try*
// form and through a posted WR, whose Poll adds one wave — and nothing else
// in the shard moves.
func TestEachVerbCountedOnce(t *testing.T) {
	type counts map[obs.Event]int64
	const down = 2 // a node marked unreachable
	for _, tc := range []struct {
		name   string
		sync   func(*QP) error
		post   func(*SendQueue) // nil: the verb has no posted form
		events counts
	}{
		{"READ", func(q *QP) error { return q.TryRead(1, 0, 0, make([]uint64, 3)) },
			func(sq *SendQueue) { sq.PostRead(1, 0, 0, make([]uint64, 3)) },
			counts{obs.EvRDMARead: 1, obs.EvRDMAReadBytes: 24}},
		{"WRITE", func(q *QP) error { return q.TryWrite(1, 0, 0, []uint64{1, 2}) },
			func(sq *SendQueue) { sq.PostWrite(1, 0, 0, []uint64{1, 2}) },
			counts{obs.EvRDMAWrite: 1}},
		{"CAS", func(q *QP) error { _, _, err := q.TryCAS(1, 0, 0, 0, 1); return err },
			func(sq *SendQueue) { sq.PostCAS(1, 0, 0, 0, 1) },
			counts{obs.EvRDMACAS: 1}},
		{"FAA", func(q *QP) error { _, err := q.TryFAA(1, 0, 0, 1); return err },
			func(sq *SendQueue) { sq.PostFAA(1, 0, 0, 1) },
			counts{obs.EvRDMAFAA: 1}},
		{"log append", func(q *QP) error { return q.TryLogAppend(1, 9, []uint64{1, 2, 3}) },
			func(sq *SendQueue) { sq.PostLogAppend(1, 9, []uint64{1, 2, 3}) },
			counts{obs.EvLogAppend: 1, obs.EvBackupBytes: 24}},
		{"faulted WRITE", func(q *QP) error {
			if err := q.TryWrite(down, 0, 0, []uint64{1}); !errors.Is(err, ErrNodeUnreachable) {
				return fmt.Errorf("WRITE to a down node: %v", err)
			}
			return nil
		}, func(sq *SendQueue) { sq.PostWrite(down, 0, 0, []uint64{1}) },
			counts{obs.EvVerbFault: 1}},
		{"Call", func(q *QP) error { _, err := q.Call(1, 0, 8, 8); return err }, nil,
			counts{obs.EvVerbsMsg: 1}},
		{"CallIPoIB", func(q *QP) error { _, err := q.CallIPoIB(1, 0, 8, 8); return err }, nil,
			counts{obs.EvVerbsMsg: 1}},
		{"Probe", func(q *QP) error { return q.Probe(1) }, nil,
			counts{obs.EvRDMARead: 1}},
	} {
		check := func(path string, run func(*QP), want counts) {
			f := newTestFabric(3)
			f.RegisterLogSink(1, 9, nopSink{})
			f.Serve(1, func(int, any) any { return nil })
			f.SetNodeDown(down, true)
			qp := newCountedQP(f, 0, nil)
			run(qp)
			for ev := obs.Event(0); int(ev) < obs.NumEvents; ev++ {
				if got := qp.Obs.Count(ev); got != want[ev] {
					t.Errorf("%s, %s: %v = %d, want %d", tc.name, path, ev, got, want[ev])
				}
			}
		}
		check("sync", func(q *QP) {
			if err := tc.sync(q); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}, tc.events)
		if tc.post == nil {
			continue
		}
		posted := counts{obs.EvRDMABatch: 1} // one polled wave
		for ev, n := range tc.events {
			posted[ev] = n
		}
		check("posted", func(q *QP) {
			sq := q.NewSendQueue(0)
			tc.post(sq)
			sq.Poll()
		}, posted)
	}
}

func TestAtomicityLevelString(t *testing.T) {
	if AtomicHCA.String() != "IBV_ATOMIC_HCA" || AtomicGLOB.String() != "IBV_ATOMIC_GLOB" {
		t.Fatal("atomicity level strings wrong")
	}
}

func BenchmarkRDMARead64B(b *testing.B) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	dst := make([]uint64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qp.Read(1, 0, 0, dst)
	}
}

func BenchmarkRDMACAS(b *testing.B) {
	f := newTestFabric(2)
	qp := f.NewQP(0, nil)
	for i := 0; i < b.N; i++ {
		qp.CAS(1, 0, 0, uint64(i), uint64(i+1))
	}
}
