package tx

import (
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// A worker that keeps no log and appends no redo record leaves its release
// chain in flight (Tx.postWave, rdma.SendQueue.PollDetached): these tests pin
// what the commit is charged, what a later wait pays for it, that its effects
// are visible at once, and that a worker with logs still waits.

// rmw is one read-modify-write of key: its value's first word goes up by one.
func rmw(e *Executor, key uint64) error {
	return e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, key)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, key, []uint64{v[0] + 1, v[1]})
		})
	})
}

// TestDetachedCommit: a remote write's commit is charged its lock wave, its
// region and its chain's doorbells — not the WRITE's latency, which the
// publish stage leaves in flight. A remote READ posted right after the commit
// pays max(READ, what is left in flight); a local-only transaction pays
// nothing for it. Another executor sees the new value and the free state word
// as soon as Exec returns. Key 3 lives on node 1, key 2 on node 0.
func TestDetachedCommit(t *testing.T) {
	rt, e := goldenRig(t, PolicyAdaptive) // reads lease nothing
	m := rt.C.Fabric.Model()
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(3)
	v0 := host.Arena().LoadWord(kvs.ValueOffset(off))
	write := int64(m.RDMAWrite(32)) // incver ‖ INIT ‖ two value words: one WRITE

	before := rt.C.Obs.Snapshot()
	if err := rmw(e, 3); err != nil {
		t.Fatal(err)
	}
	d := rt.C.Obs.Snapshot().Delta(before)
	if pub := d.Stages[obs.StagePublish]; pub != (obs.WaveStats{Waves: 1, WRs: 1, Nanos: m.DoorbellNS, Inflight: write}) {
		t.Fatalf("publish stage = %+v, want one WRITE charged its doorbell, %d ns in flight", pub, write)
	}
	lock, htm, commit := d.Phases[obs.PhaseLockRemote].Sum, d.Phases[obs.PhaseHTM].Sum, d.Phases[obs.PhaseCommit].Sum
	if total := d.Phases[obs.PhaseTotal].Sum; commit != m.DoorbellNS || total != lock+htm+commit {
		t.Fatalf("commit %d ns of %d in all (lock %d, region %d), want the commit one doorbell, %d ns, and nothing else",
			commit, total, lock, htm, m.DoorbellNS)
	}
	if s := host.Arena().LoadWord(kvs.StateOffset(off)); s != clock.Init {
		t.Fatalf("state word %#x once Exec returned, want free", s)
	}
	if v := host.Arena().LoadWord(kvs.ValueOffset(off)); v != v0+1 {
		t.Fatalf("value %d once Exec returned, want %d", v, v0+1)
	}
	var seen []uint64
	if err := rt.Executor(1, 0).ExecRO(func(ro *RO) error {
		v, err := ro.Read(tblAccounts, 3)
		seen = append(seen[:0], v...)
		return err
	}); err != nil || seen[0] != v0+1 {
		t.Fatalf("the host's own executor read %v (%v), want the new value %d", seen, err, v0+1)
	}

	// A local-only transaction right after a detached commit pays what it pays
	// with nothing in flight, and waits for nothing.
	local := func() int64 {
		t0 := e.w.VClock.Now()
		if err := rmw(e, 2); err != nil {
			t.Fatal(err)
		}
		return int64(e.w.VClock.Now() - t0)
	}
	if err := rmw(e, 3); err != nil {
		t.Fatal(err)
	}
	waits := e.w.Obs.Count(obs.EvInflightWaitNS)
	behind, alone := local(), local()
	if behind != alone || e.w.Obs.Count(obs.EvInflightWaitNS) != waits {
		t.Fatalf("a local transaction behind a detached commit took %d ns (alone %d) and waited %d ns",
			behind, alone, e.w.Obs.Count(obs.EvInflightWaitNS)-waits)
	}

	// Slow the link to node 1 so the commit's WRITE outlasts a READ of this
	// machine's own memory, the next verb the worker waits for.
	const extra = 5_000
	plan := rdma.NewFaultPlan(1)
	plan.LinkRule(0, 1, rdma.FaultRule{ExtraNS: extra})
	rt.C.Fabric.SetFaultPlan(plan)
	defer rt.C.Fabric.SetFaultPlan(nil)
	for _, slow := range []bool{true, false} {
		if !slow {
			plan.Clear()
		}
		if err := rmw(e, 3); err != nil {
			t.Fatal(err)
		}
		left := write
		if slow {
			left += extra
		}
		read := int64(m.RDMARead(8))
		t0, waits := e.w.VClock.Now(), e.w.Obs.Count(obs.EvInflightWaitNS)
		e.w.QP.Read(0, tblAccounts, 0, make([]uint64, 1))
		if got, waited := int64(e.w.VClock.Now()-t0), e.w.Obs.Count(obs.EvInflightWaitNS)-waits; got != max(read, left) || waited != max(read, left)-read {
			t.Fatalf("slow link %v: a READ behind %d ns in flight took %d ns and waited %d, want max(READ %d, %d)",
				slow, left, got, waited, read, left)
		}
	}
}

// TestLoggedCommitWaits: under Durability, and under one backup per partition,
// the release chain is awaited: the commit of TestDetachedCommit's remote write
// pays the WRITE's latency and its doorbell — after the redo append's own wave
// under replication — and nothing is left in flight.
func TestLoggedCommitWaits(t *testing.T) {
	for _, c := range []struct {
		name   string
		mut    func(*cluster.Config)
		commit int64 // modeled ns of the commit phase, as when every chain was awaited
	}{
		{"durable", func(c *cluster.Config) { c.Durability = true }, 1404},
		{"replicated", func(c *cluster.Config) { c.ReplicationFactor = 1 }, 3017},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, 1)
			cfg.LeaseMicros, cfg.ROLeaseMicros = 1<<40, 1<<40
			c.mut(&cfg)
			rt := NewRuntime(cluster.New(cfg), func(table int, key uint64) int { return int(key) % 2 })
			rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
			if err := rt.C.Node(1).Unordered(tblAccounts).Insert(3, []uint64{1000, 3}); err != nil {
				t.Fatal(err)
			}
			m := rt.C.Fabric.Model()
			before := rt.C.Obs.Snapshot()
			if err := rmw(rt.Executor(0, 0), 3); err != nil {
				t.Fatal(err)
			}
			d := rt.C.Obs.Snapshot().Delta(before)
			want := obs.WaveStats{Waves: 1, WRs: 1, Nanos: int64(m.RDMAWrite(32)) + m.DoorbellNS}
			if pub := d.Stages[obs.StagePublish]; pub != want {
				t.Fatalf("publish stage = %+v, want %+v", pub, want)
			}
			if got := d.Phases[obs.PhaseCommit].Sum; got != c.commit || d.Counter(obs.EvDetached) != 0 {
				t.Fatalf("commit %d ns with %d waves left in flight, want %d ns and none", got, d.Counter(obs.EvDetached), c.commit)
			}
		})
	}
}
