package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/rdma"
)

func TestNewClusterShape(t *testing.T) {
	c := New(DefaultConfig(3, 4))
	defer c.Stop()
	if c.Nodes() != 3 {
		t.Fatalf("Nodes = %d", c.Nodes())
	}
	if len(c.Workers()) != 12 {
		t.Fatalf("Workers = %d", len(c.Workers()))
	}
	w := c.Worker(1, 2)
	if w.Node.ID != 1 || w.ID != 2 {
		t.Fatalf("worker identity = %d/%d", w.Node.ID, w.ID)
	}
	if w.QP.Local() != 1 {
		t.Fatal("QP bound to wrong node")
	}
}

func TestRegisterTables(t *testing.T) {
	c := New(DefaultConfig(2, 1))
	defer c.Stop()
	c.RegisterUnordered(1, 64, 64, 128, 2)
	c.RegisterOrdered(2, 128, 2, 0)

	t0 := c.Node(0).Unordered(1)
	if err := t0.Insert(5, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Remote node can read it one-sided.
	qp := c.Worker(1, 0).QP
	e, ok := t0.GetRemote(qp, nil, 5)
	if !ok || e.Value[0] != 1 {
		t.Fatalf("remote get = %+v,%v", e, ok)
	}

	o1 := c.Node(1).Ordered(2)
	if err := o1.Insert(9, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if v, ok := o1.Get(9); !ok || v[0] != 3 {
		t.Fatal("ordered get failed")
	}
	if _, ok := c.Node(0).OrderedRegion(2); !ok {
		t.Fatal("node 0 does not host ordered table 2")
	}
	if _, ok := c.Node(0).OrderedRegion(99); ok {
		t.Fatal("node 0 hosts an ordered table 99 never defined")
	}
}

func TestVerbsDispatch(t *testing.T) {
	c := New(DefaultConfig(2, 1))
	defer c.Stop()
	c.Node(1).Handle(7, func(from int, body any) any {
		return body.(string) + " handled by node 1"
	})
	resp, err := c.Worker(0, 0).QP.Call(1, Msg{Type: 7, Body: "hello"}, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if resp.(string) != "hello handled by node 1" {
		t.Fatalf("resp = %v", resp)
	}
	// Missing handlers are errors carried in the response, not panics.
	resp, err = c.Worker(0, 0).QP.Call(1, Msg{Type: 99, Body: nil}, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(error); !ok {
		t.Fatalf("missing-handler resp = %v, want error", resp)
	}
}

func TestCrashMarksNodeDown(t *testing.T) {
	c := New(DefaultConfig(3, 1))
	defer c.Stop()
	c.Crash(2)
	c.Crash(2) // idempotent
	if c.Node(2).Alive() {
		t.Fatal("crashed node still alive")
	}
	if !c.Fabric.NodeDown(2) {
		t.Fatal("crash did not mark the endpoint unreachable")
	}
	if len(c.Workers()) != 2 {
		t.Fatalf("workers after crash = %d", len(c.Workers()))
	}
	c.Revive(2)
	if !c.Node(2).Alive() || c.Fabric.NodeDown(2) {
		t.Fatal("revive failed")
	}
}

// TestLeaseDetectionElectsCoordinator exercises the full membership path:
// a crash stops the node's heartbeats, survivors observe the expired lease,
// confirm by probing, and exactly one (the lowest-ID survivor) wins the
// coordinator CAS and runs the OnDeath handler.
func TestLeaseDetectionElectsCoordinator(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.FailureDetection = true
	c := New(cfg)
	defer c.Stop()

	type death struct{ coordinator, crashed int }
	deaths := make(chan death, 8)
	c.OnDeath(func(coordinator, crashed int) {
		deaths <- death{coordinator, crashed}
		c.Revive(crashed)
	})
	c.Start()

	// Let leases establish, then fail node 1 with no notification.
	time.Sleep(5 * heartbeatInterval)
	c.Crash(1)

	select {
	case d := <-deaths:
		if d.crashed != 1 {
			t.Fatalf("detected crash of node %d, want 1", d.crashed)
		}
		if d.coordinator != 0 {
			t.Fatalf("coordinator = node %d, want lowest-ID survivor 0", d.coordinator)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crash never detected via lease expiry")
	}

	// The handler revived the node; detectors must see it alive again and a
	// later crash must elect afresh (coordinator word was cleared).
	deadline := time.Now().Add(5 * time.Second)
	for !c.Node(1).Alive() {
		if time.Now().After(deadline) {
			t.Fatal("node 1 never revived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * heartbeatInterval)
	c.Crash(2)
	select {
	case d := <-deaths:
		if d.crashed != 2 || d.coordinator != 0 {
			t.Fatalf("second election = %+v, want node 0 recovering node 2", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second crash never detected")
	}
}

func TestDurabilityLogsAllocated(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.Durability = true
	cfg.LogWords = 1024
	c := New(cfg)
	defer c.Stop()
	w := c.Worker(0, 1)
	if w.WriteAheadLog == nil || w.LockAheadLog == nil || w.ChoppingLog == nil {
		t.Fatal("durability logs missing")
	}
	w.LockAheadLog.Append([]uint64{1})
	if w.LockAheadLog.BytesUsed() != 2*8 {
		t.Fatal("log append failed")
	}
	// Logs are per-worker: the other worker's logs are untouched.
	if c.Worker(0, 0).LockAheadLog.BytesUsed() != 0 {
		t.Fatal("logs shared between workers")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(6, 8)
	if cfg.LeaseMicros != 400 || cfg.ROLeaseMicros != 1000 {
		t.Fatal("lease durations diverge from Section 4.2")
	}
	c := New(cfg)
	defer c.Stop()
	if c.Delta() == 0 {
		t.Fatal("Delta must be positive")
	}
	// Node skews stay within the bound: softtime readable everywhere.
	for i := 0; i < c.Nodes(); i++ {
		_ = c.Node(i).Clock.Read()
	}
}

func TestSofttimeSkewOrdering(t *testing.T) {
	c := New(DefaultConfig(5, 1))
	defer c.Stop()
	// Node 0 has -skewBound, node 4 has +skewBound.
	lo := c.Node(0).Clock.Read()
	hi := c.Node(4).Clock.Read()
	if hi <= lo {
		t.Fatalf("skew spread wrong: node0=%d node4=%d", lo, hi)
	}
}

func TestCrossNodeCoherence(t *testing.T) {
	c := New(DefaultConfig(2, 1))
	defer c.Stop()
	c.RegisterUnordered(1, 16, 16, 32, 1)
	host := c.Node(0).Unordered(1)
	_ = host.Insert(1, []uint64{10})
	off, _ := host.LookupLocal(1)

	// Remote CAS on the state word, then local HTM read sees it.
	qp := c.Worker(1, 0).QP
	prev, ok := qp.CAS(0, 1, memory.Offset(off)+2, 0, 0xABC)
	if !ok || prev != 0 {
		t.Fatalf("remote CAS = %d,%v", prev, ok)
	}
	if host.Arena().LoadWord(off+2) != 0xABC {
		t.Fatal("remote CAS not coherent with local view")
	}
}

// TestPromotionFencesBeforeItRoutes pins the two steps of a view handover:
// TryPromote moves the membership's word — the log sinks fence the old epoch
// from then on — while transactions keep routing by the old view until
// PublishView, which the caller issues once the redo tails are replayed.
func TestPromotionFencesBeforeItRoutes(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.Durability = true
	cfg.ReplicationFactor = 1
	c := New(cfg)
	defer c.Stop()
	const part, backup = 1, 2
	old := c.View(part)
	rec := nvram.EncodeRedo(nil, 7, []nvram.RedoUpdate{{Part: part, Epoch: ViewEpoch(old), Table: 1, Key: 1}})
	sink := c.RedoSinkAt(backup, 0, 0)
	if err := sink.RemoteAppend(0, rec); err != nil {
		t.Fatalf("append under the current epoch: %v", err)
	}

	nv, ok := c.TryPromote(part, backup)
	if !ok || ViewOwner(nv) != backup || ViewEpoch(nv) != ViewEpoch(old)+1 {
		t.Fatalf("TryPromote = %#x, %v", nv, ok)
	}
	if c.MembershipView(part) != nv {
		t.Fatalf("membership view = %#x, want %#x", c.MembershipView(part), nv)
	}
	if c.View(part) != old || c.OwnerOf(part) != part {
		t.Fatalf("routing moved to %#x before the tails were replayed", c.View(part))
	}
	if err := sink.RemoteAppend(0, rec); !errors.Is(err, rdma.ErrFenced) {
		t.Fatalf("stale-epoch append after TryPromote: %v, want ErrFenced", err)
	}
	if _, again := c.TryPromote(part, backup); again {
		t.Fatal("second TryPromote of the same crash succeeded")
	}

	c.PublishView(part, nv)
	if c.View(part) != nv || c.OwnerOf(part) != backup {
		t.Fatalf("view after publish = %#x, want %#x", c.View(part), nv)
	}
}

// TestRedoSinkDrainEquivalence holds the in-place sink to what the copying one
// delivered: a drain hands back every appended record word for word, in append
// order, counts them and leaves the ring empty and appendable; a record the
// fence rejects — on any of its updates — or a malformed one leaves the ring
// as it was.
func TestRedoSinkDrainEquivalence(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	cfg.Durability = true
	cfg.ReplicationFactor = 1
	c := New(cfg)
	defer c.Stop()
	const backup = 2
	sink := c.RedoSinkAt(backup, 0, 0)
	epoch := func(p int) uint64 { return ViewEpoch(c.View(p)) }

	var want [][]uint64
	for i := 0; i < 20; i++ {
		ups := []nvram.RedoUpdate{{Part: 1, Epoch: epoch(1), Table: 1, Key: uint64(i),
			Version: uint32(i + 1), Val: make([]uint64, i%11)}}
		if i%3 == 0 { // a cross-partition write-set
			ups = append(ups, nvram.RedoUpdate{Part: 0, Epoch: epoch(0), Table: 2, Key: 99, Val: []uint64{uint64(i)}})
		}
		rec := nvram.EncodeRedo(nil, uint64(100+i), ups)
		if err := sink.RemoteAppend(0, rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	used := sink.BytesUsed()
	words := 0
	for _, rec := range want {
		words += 1 + len(rec)
	}
	if used != words*8 {
		t.Fatalf("BytesUsed = %d, want %d", used, words*8)
	}

	// Rejected appends: a stale epoch on the second update only, and a frame
	// whose count overruns it. Neither may touch the ring.
	if _, ok := c.TryPromote(1, backup); !ok {
		t.Fatal("TryPromote failed")
	}
	stale := nvram.EncodeRedo(nil, 1, []nvram.RedoUpdate{
		{Part: 0, Epoch: epoch(0), Table: 2, Key: 1},
		{Part: 1, Epoch: epoch(1), Table: 1, Key: 1}, // the routing mirror's epoch: one behind
	})
	if err := sink.RemoteAppend(0, stale); !errors.Is(err, rdma.ErrFenced) {
		t.Fatalf("stale second update: %v, want ErrFenced", err)
	}
	if err := sink.RemoteAppend(0, []uint64{1, 5, 0}); err == nil || errors.Is(err, rdma.ErrFenced) {
		t.Fatalf("malformed frame: %v, want a framing error", err)
	}
	if sink.BytesUsed() != used {
		t.Fatalf("rejected appends moved the ring: %d -> %d bytes", used, sink.BytesUsed())
	}

	i := 0
	n := sink.Drain(func(rec []uint64) {
		if i < len(want) && !slices.Equal(rec, want[i]) {
			t.Errorf("record %d = %v, want %v", i, rec, want[i])
		}
		i++
	})
	if n != len(want) || i != n {
		t.Fatalf("Drain returned %d (fn called %d times), appended %d", n, i, len(want))
	}
	if sink.BytesUsed() != 0 {
		t.Fatalf("ring holds %d bytes after the drain", sink.BytesUsed())
	}
	if n := sink.Drain(func([]uint64) { t.Error("fn called on a drained ring") }); n != 0 {
		t.Fatalf("second drain returned %d", n)
	}

	fresh := nvram.EncodeRedo(nil, 2, []nvram.RedoUpdate{{Part: 0, Epoch: epoch(0), Table: 2, Key: 3, Val: []uint64{4}}})
	if err := sink.RemoteAppend(0, fresh); err != nil {
		t.Fatalf("append after the drain: %v", err)
	}
	sink.Drain(func(rec []uint64) {
		if !slices.Equal(rec, fresh) {
			t.Errorf("after drain + append: %v, want %v", rec, fresh)
		}
	})
}

// TestCopies: a partition's copies are its home, then its backups in rank
// order, one shard of every registered table on each, under the copy's region
// (the table on the home, a replica region on a backup that no other
// partition's copy shares); Copies appends without allocating when dst has
// room; Serving names the home's table until a promotion is published, and the
// promoted backup's replica region after — TryPromote alone moves nothing.
func TestCopies(t *testing.T) {
	const nodes, table = 4, 3
	for f := 0; f <= 2; f++ {
		cfg := DefaultConfig(nodes, 1)
		cfg.ReplicationFactor = f
		c := New(cfg)
		c.RegisterUnordered(table, 16, 16, 16, 1)
		c.RegisterOrdered(table+1, 16, 1, 8)
		regions := map[[2]int]int{} // (node, region) -> partition
		buf := make([]int, 0, nodes)
		for p := 0; p < nodes; p++ {
			copies := c.Copies(buf, p)
			want := []int{p}
			for i := 1; i <= f; i++ {
				want = append(want, (p+i)%nodes)
			}
			if !slices.Equal(copies, want) {
				t.Fatalf("f=%d: Copies(%d) = %v, want %v", f, p, copies, want)
			}
			if &copies[0] != &buf[:1][0] {
				t.Fatalf("f=%d: Copies(%d) did not append to dst", f, p)
			}
			for _, n := range copies {
				region := CopyRegion(p, table, n)
				if (n == p) != (region == table) {
					t.Fatalf("f=%d: CopyRegion(%d, %d, %d) = %d", f, p, table, n, region)
				}
				if rp, rt := RegionTable(region); rt != table || (n != p && rp != p) {
					t.Fatalf("f=%d: region %d decodes to partition %d table %d", f, region, rp, rt)
				}
				if q, dup := regions[[2]int{n, region}]; dup {
					t.Fatalf("f=%d: partitions %d and %d share region %d on node %d", f, q, p, region, n)
				}
				regions[[2]int{n, region}] = p
				c.Node(n).Unordered(region)
				c.Node(n).Ordered(CopyRegion(p, table+1, n))
			}
			if node, region := c.Serving(p, table); node != p || region != table {
				t.Fatalf("f=%d: Serving(%d) = (%d, %d) before any promotion", f, p, node, region)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = c.Copies(buf[:0], 1) }); allocs != 0 {
			t.Fatalf("f=%d: Copies into a roomy dst allocates %.0f objects", f, allocs)
		}
		if f == 0 {
			continue
		}
		const part, backup = 1, 2
		nv, ok := c.TryPromote(part, backup)
		if !ok {
			t.Fatalf("f=%d: TryPromote failed", f)
		}
		if node, region := c.Serving(part, table); node != part || region != table {
			t.Fatalf("f=%d: Serving = (%d, %d) before PublishView", f, node, region)
		}
		c.PublishView(part, nv)
		if node, region := c.Serving(part, table); node != backup || region != CopyRegion(part, table, backup) {
			t.Fatalf("f=%d: Serving = (%d, %d) after the promotion, want node %d's replica region", f, node, region, backup)
		}
		if node, region := c.Serving(0, table); node != 0 || region != table {
			t.Fatalf("f=%d: Serving(0) = (%d, %d): another partition moved", f, node, region)
		}
		if copies := c.Copies(nil, part); !slices.Equal(copies, []int{part, 2, 3}[:f+1]) {
			t.Fatalf("f=%d: Copies(%d) after the promotion = %v", f, part, copies)
		}
	}
}

// TestLoad: Load runs its fill exactly once for each copy of each partition,
// never more than GOMAXPROCS at a time, and returns the error of the first
// failing copy in partition-then-rank order, whatever failed after it.
func TestLoad(t *testing.T) {
	const nodes = 4
	for f := 0; f <= 2; f++ {
		cfg := DefaultConfig(nodes, 1)
		cfg.ReplicationFactor = f
		c := New(cfg)
		var (
			mu            sync.Mutex
			ran           = map[[2]int]int{}
			running, peak int
		)
		fill := func(fail map[[2]int]bool) func(p, node int) error {
			return func(p, node int) error {
				mu.Lock()
				ran[[2]int{p, node}]++
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				if fail[[2]int{p, node}] {
					return fmt.Errorf("copy %d/%d", p, node)
				}
				return nil
			}
		}
		if err := c.Load(fill(nil)); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		for p := 0; p < nodes; p++ {
			for _, node := range c.Copies(nil, p) {
				if n := ran[[2]int{p, node}]; n != 1 {
					t.Fatalf("f=%d: copy of partition %d on node %d filled %d times", f, p, node, n)
				}
			}
		}
		if len(ran) != nodes*(f+1) || peak > runtime.GOMAXPROCS(0) {
			t.Fatalf("f=%d: %d copies filled, %d at once", f, len(ran), peak)
		}

		clear(ran)
		failing := map[[2]int]bool{{2, (2 + f) % nodes}: true, {1, 1}: true}
		if err := c.Load(fill(failing)); err == nil || err.Error() != "copy 1/1" {
			t.Fatalf("f=%d: Load returned %v, want the error of copy 1/1", f, err)
		}
		if ran[[2]int{1, 1}] != 1 || ran[[2]int{0, 0}] != 1 {
			t.Fatalf("f=%d: copies before the failure not filled: %v", f, ran)
		}
		// On one goroutine the failing copy is the last to start: it is
		// partition 1's first, behind partition 0's f+1.
		if started := len(ran); runtime.GOMAXPROCS(0) == 1 && started != f+2 {
			t.Fatalf("f=%d: %d copies started, want %d", f, started, f+2)
		}
	}
}
