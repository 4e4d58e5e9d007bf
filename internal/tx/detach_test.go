package tx

import (
	"slices"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// A commit leaves its release chain in flight (Tx.postWave,
// rdma.SendQueue.PollDetached): these tests pin what the commit is charged,
// what a later wait pays for it, that its effects are visible at once, that a
// durable worker without backups still waits, and that under replication the
// next redo record says the chain is home only once it has landed.

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

// TestLoggedCommitWaits: under Durability without backups the release chain
// is awaited — the next log restart would drop the write-ahead record that
// names its writes — so the commit of TestDetachedCommit's remote write pays
// the WRITE's latency and its doorbell, and nothing is left in flight. Under
// one backup per partition the chain is left in flight as with no log: the
// publish stage is charged its doorbell, and the commit phase — after the redo
// append's own wave — is shorter than the awaited chain's by exactly the
// WRITE's latency.
func TestLoggedCommitWaits(t *testing.T) {
	for _, c := range []struct {
		name     string
		mut      func(*cluster.Config)
		awaited  int64 // modeled ns of the commit phase when every chain was awaited
		detached bool
	}{
		{"durable", func(c *cluster.Config) { c.Durability = true }, 1404, false},
		{"replicated", func(c *cluster.Config) { c.ReplicationFactor = 1 }, 3017, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, e := replRig(t, c.mut)
			m := rt.C.Fabric.Model()
			before := rt.C.Obs.Snapshot()
			if err := rmw(e, 3); err != nil {
				t.Fatal(err)
			}
			d := rt.C.Obs.Snapshot().Delta(before)
			write := int64(m.RDMAWrite(32))
			want, commit, detached := obs.WaveStats{Waves: 1, WRs: 1, Nanos: write + m.DoorbellNS}, c.awaited, int64(0)
			if c.detached {
				want.Nanos, want.Inflight = m.DoorbellNS, write
				commit, detached = c.awaited-write, 1
			}
			if pub := d.Stages[obs.StagePublish]; pub != want {
				t.Fatalf("publish stage = %+v, want %+v", pub, want)
			}
			if got := d.Phases[obs.PhaseCommit].Sum; got != commit || d.Counter(obs.EvDetached) != detached {
				t.Fatalf("commit %d ns with %d waves left in flight, want %d ns and %d", got, d.Counter(obs.EvDetached), commit, detached)
			}
		})
	}
}

// replRig is a two-node cluster of one worker each, configured by mut, with
// key 3 on node 1 and key 2 on node 0 and leases that outlast the test; it
// returns node 0's executor.
func replRig(t *testing.T, mut func(*cluster.Config)) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros, cfg.ROLeaseMicros = 1<<40, 1<<40
	mut(&cfg)
	rt := NewRuntime(cluster.New(cfg), func(table int, key uint64) int { return int(key) % 2 })
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	for _, k := range []uint64{2, 3} {
		if err := rt.C.Node(int(k)%2).Unordered(tblAccounts).Insert(k, []uint64{1000, k}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, rt.Executor(0, 0)
}

// ringHomes drains the ring node sender's worker 0 appends to on host and
// returns each record's home bit, in append order.
func ringHomes(rt *Runtime, host, sender int) []bool {
	var homes []bool
	rt.C.RedoSinkAt(host, sender, 0).Drain(func(rec []uint64) { homes = append(homes, nvram.RedoHome(rec)) })
	return homes
}

// TestRedoHomeWaitsForChain: a redo record appended while the worker's last
// release chain is still in flight does not carry the home bit, so its backup
// keeps the earlier records; the append's wave is awaited, and pays what was
// left in flight, so the next record carries the bit. Node 0 writes key 3 on
// node 1 over a link slowed so its chain outlasts the next transaction's
// region, then writes key 2, whose partition node 1 backs up, twice.
func TestRedoHomeWaitsForChain(t *testing.T) {
	rt, e := replRig(t, func(c *cluster.Config) { c.ReplicationFactor = 1 })
	plan := rdma.NewFaultPlan(1)
	plan.LinkRule(0, 1, rdma.FaultRule{ExtraNS: 5_000})
	rt.C.Fabric.SetFaultPlan(plan)
	err := rmw(e, 3)
	rt.C.Fabric.SetFaultPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.w.QP.Idle() {
		t.Fatal("the chain to node 1 landed before the next transaction began")
	}
	waits := e.w.Obs.Count(obs.EvInflightWaitNS)
	for i := 0; i < 2; i++ {
		if err := rmw(e, 2); err != nil {
			t.Fatal(err)
		}
	}
	if e.w.Obs.Count(obs.EvInflightWaitNS) == waits {
		t.Fatal("no append paid for the chain left in flight")
	}
	if got := ringHomes(rt, 0, 0); !slices.Equal(got, []bool{true}) {
		t.Fatalf("node 0's ring: home bits %v, want the first transaction's record home", got)
	}
	if got := ringHomes(rt, 1, 0); !slices.Equal(got, []bool{false, true}) {
		t.Fatalf("node 1's ring: home bits %v, want the record behind the chain without, the next with", got)
	}
}

// TestRedoRingBoundedBehindSends: transactions that each leave a one-way
// message in flight before the next redo append keep the home bit off, and
// their records pile up in the backup's ring — until the words appended since
// the last home record would pass cluster.CheckpointWords: that append waits
// out what is in flight (rdma.QP.Settle) and carries the bit, and the backup
// drains its ring. The ring never holds more than CheckpointWords and two
// records, and never overflows.
func TestRedoRingBoundedBehindSends(t *testing.T) {
	rt, e := replRig(t, func(c *cluster.Config) { c.ReplicationFactor = 1 })
	sink := rt.C.RedoSinkAt(1, 0, 0)
	var rec, most int // one record's footprint in the ring, the ring's most
	for i := 0; i < 300; i++ {
		if err := rmw(e, 2); err != nil {
			t.Fatal(err)
		}
		used := sink.BytesUsed() / 8
		if i == 0 {
			rec = used
		}
		most = max(most, used)
		e.hostMsg.Ops = e.hostMsg.Ops[:0] // a host-op message with no op
		e.shipHostOps(1)
		if e.w.QP.Idle() {
			t.Fatalf("step %d: the message landed before the next transaction began", i)
		}
	}
	if bound := cluster.CheckpointWords + 2*rec; most > bound {
		t.Fatalf("the ring held %d words, want at most CheckpointWords and two records, %d", most, bound)
	}
	if n := rt.C.Obs.Total(obs.EvRingDrain); n == 0 {
		t.Fatal("the ring was never drained")
	}
	// What is left: the record that last drained the ring, and behind it only
	// records appended with a message in flight.
	homes := ringHomes(rt, 1, 0)
	if len(homes) < 2 || slices.Contains(homes[1:], true) {
		t.Fatalf("ring left with home bits %v, want records without one behind the last drain", homes)
	}
}
