package tatp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm"
	"drtm/internal/cluster"
	"drtm/internal/crashrig"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/tatp"
)

func openTATP(t *testing.T, nodes, workers int, opts drtm.Options) (*drtm.DB, *tatp.Workload) {
	t.Helper()
	cfg := tatp.Config{Nodes: nodes, Subscribers: 20 * nodes}
	opts.Nodes = nodes
	opts.WorkersPerNode = workers
	db := drtm.MustOpen(opts, cfg.Partitioner())
	w, err := tatp.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	// Every test that uses the rig ends in the quiescence audit — no lock
	// leaked, no logged write owed — and then closes the database.
	t.Cleanup(func() {
		if err := db.RT.AuditQuiescent(); err != nil {
			t.Error(err)
		}
		db.Close()
	})
	return db, w
}

func TestSetupPassesAudit(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	// Sanity: the index resolves a subscriber's phone number back.
	if v, ok := db.Get(tatp.TableSubNbrIndex, tatp.SubNbr(3)); !ok || v[0] != 3 {
		t.Fatalf("index row for subscriber 3 = %v,%v", v, ok)
	}
}

func TestTransactionsMaintainInvariant(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	cl := w.NewClient(db.Executor(0, 0), 1)
	for i := 0; i < 800; i++ {
		if err := cl.RunOne(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	if len(cl.Counts) < 5 {
		t.Fatalf("mix too narrow: %v", cl.Counts)
	}
}

// The index/base divergence audit (satellite): a randomized op-mix stress —
// inserts, updates, deletes, scans — under verb-level fault injection, with
// live RO invariant checkers riding along; at quiesce, every secondary
// index is rebuilt from its base table and diffed against the maintained
// one. Run with -race.
func TestTATPDivergenceAuditUnderFaults(t *testing.T) {
	const nodes, workers = 2, 2
	db, w := openTATP(t, nodes, workers, drtm.Options{FaultSeed: 7})
	db.InjectNodeFaults(0, drtm.FaultRule{FailProb: 0.01})
	db.InjectNodeFaults(1, drtm.FaultRule{FailProb: 0.01})

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		violations atomic.Value
	)
	for n := 0; n < nodes; n++ {
		for wk := 0; wk < workers; wk++ {
			cl := w.NewClient(db.Executor(n, wk), int64(100+n*workers+wk))
			wg.Add(1)
			go func(n, wk int, cl *tatp.Client) {
				defer wg.Done()
				sid := uint64(1)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if wk == workers-1 && i%4 == 0 {
						// Live checker lane: one RO snapshot check per burst.
						sid = sid%uint64(w.Cfg.Subscribers) + 1
						if err := cl.CheckSubscriberRO(sid); err != nil && !errors.Is(err, drtm.ErrNodeDown) {
							violations.Store(err)
							return
						}
						continue
					}
					if err := cl.RunOne(); err != nil && !errors.Is(err, drtm.ErrNodeDown) {
						violations.Store(err)
						return
					}
				}
			}(n, wk, cl)
		}
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != nil {
		t.Fatal(v.(error))
	}
	db.ClearFaults()
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The TATP consistency checker (satellite): the facility invariant holds
// live under concurrent traffic THROUGH a mid-run crash and hot failover
// (ReplicationFactor=1), with verb faults injected, and the quiesced audit
// passes against the promoted backup's shards afterwards. Each case is one
// fault seed and one seed base for the clients. Run with -race.
func TestTATPConsistencyAcrossFailover(t *testing.T) {
	for _, c := range []struct{ faultSeed, clientSeed int64 }{{11, 200}, {17, 500}} {
		t.Run(fmt.Sprintf("seed=%d", c.faultSeed), func(t *testing.T) {
			tatpAcrossFailover(t, c.faultSeed, c.clientSeed)
		})
	}
}

func tatpAcrossFailover(t *testing.T, faultSeed, clientSeed int64) {
	const (
		nodes     = 3
		workers   = 2
		victim    = 1
		phaseTxns = 1000 // a fraction of what the six clients commit in 25 ms on an idle 2-core box
	)
	db, w := openTATP(t, nodes, workers, drtm.Options{
		Durability:        true,
		ReplicationFactor: 1,
		FaultSeed:         faultSeed,
	})
	db.InjectNodeFaults(2, drtm.FaultRule{FailProb: 0.005})

	run := crashrig.Start(db, func(n, wk int) func() error {
		cl := w.NewClient(db.Executor(n, wk), clientSeed+int64(n*workers+wk))
		if wk < workers-1 {
			return cl.RunOne
		}
		// The last worker of each node checks a subscriber read-only every
		// fourth step.
		sid, i := uint64(n), 0
		return func() error {
			if i++; i%4 == 1 {
				sid = sid%uint64(w.Cfg.Subscribers) + 1
				return cl.CheckSubscriberRO(sid)
			}
			return cl.RunOne()
		}
	})
	defer run.Stop()

	if err := run.Phase(25*time.Millisecond, phaseTxns); err != nil { // build replicated state
		t.Fatal(err)
	}
	before, _, _ := db.RT.OrderedCacheStats()
	var rep drtm.FailoverReport
	if !run.Crash(victim, func() bool { rep = db.Failover(victim); return rep.Promoted }) {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	if err := run.Phase(25*time.Millisecond, phaseTxns); err != nil { // traffic against the promoted partition
		t.Fatal(err)
	}
	if _, err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	db.ClearFaults()
	if db.PartitionOwner(victim) == victim {
		t.Fatal("partition not failed over")
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := db.RT.AuditQuiescent(); err != nil {
		t.Error(err)
	}
	// The lane covers the ordered location cache: subscriber reads were served
	// at cached offsets, of the primary's region before the crash and on after
	// the failover.
	after, _, _ := db.RT.OrderedCacheStats()
	if before == 0 {
		t.Error("no subscriber read was served at a cached offset before the crash")
	}
	if after <= before {
		t.Errorf("no subscriber read was served at a cached offset after the failover (%d hits before it)", before)
	}
}

// TestShardsSizedForTheirPartition: every shard, primary and replica, is
// sized for its partition — an arena of exactly the segment stamps plus
// capacity entries, with capacity p = ceil(Subscribers/Nodes) + 64 for
// SUBSCRIBER and SUB_NBR, NumSFTypes·p for SPECIAL_FACILITY and 8·p for
// CALL_FORWARDING — and that is room enough: two clients, one per node, run
// the lifecycle mix (delete / insert subscriber, toggle facility, insert /
// delete call forwarding) with no transaction told kvs.ErrFull, and no shard's
// tree holds more entries than its partition has keys.
func TestShardsSizedForTheirPartition(t *testing.T) {
	const nodes, perClient = 2, 2500
	db, w := openTATP(t, nodes, 1, drtm.Options{Durability: true, ReplicationFactor: 1})
	subs := w.Cfg.Subscribers
	p := (subs+nodes-1)/nodes + 64
	capacity := map[int]int{
		tatp.TableSubscriber:      p,
		tatp.TableSpecialFacility: tatp.NumSFTypes * p,
		tatp.TableCallForwarding:  8 * p,
		tatp.TableSubNbrIndex:     p,
	}
	keysPerSub := map[int]int{
		tatp.TableSubscriber:      1,
		tatp.TableSpecialFacility: tatp.NumSFTypes,
		tatp.TableCallForwarding:  tatp.NumSFTypes * 24,
		tatp.TableSubNbrIndex:     1,
	}

	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := w.NewClient(db.Executor(i, 0), int64(i+1))
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for n := 0; n < perClient; n++ {
				sid := uint64(1 + rng.Intn(subs))
				sf := 1 + rng.Intn(tatp.NumSFTypes)
				var err error
				switch rng.Intn(5) {
				case 0, 1:
					// Each client creates and removes only the subscribers it
					// owns, half of them remote, so no two transactions race
					// one subscriber's life (as in the repo benchmark).
					for int(sid/nodes)%nodes != i {
						sid = uint64(1 + rng.Intn(subs))
					}
					if rng.Intn(2) == 0 {
						err = cl.DeleteSubscriber(sid)
					} else {
						err = cl.InsertSubscriber(sid, uint64(rng.Intn(15)+1)<<1)
					}
				case 2:
					err = cl.ToggleSpecialFacility(sid, sf)
				case 3:
					err = cl.InsertCallForwarding(sid, sf, rng.Intn(24))
				default:
					err = cl.DeleteCallForwarding(sid, sf, rng.Intn(24))
				}
				if err != nil {
					errs[i] = fmt.Errorf("txn %d, subscriber %d: %w", n, sid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if errors.Is(err, kvs.ErrFull) {
			t.Fatalf("client %d: a shard ran out of slots: %v", i, err)
		}
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}

	stamps := kvs.SegCount * memory.WordsPerLine
	for part := 0; part < nodes; part++ {
		partSubs := 0
		for sid := 1; sid <= subs; sid++ {
			if w.Cfg.NodeOf(uint64(sid)) == part {
				partSubs++
			}
		}
		for table, cap := range capacity {
			for _, host := range db.C.Copies(nil, part) {
				o, ok := db.C.Node(host).OrderedRegion(cluster.CopyRegion(part, table, host))
				if !ok {
					t.Fatalf("no shard of table %d partition %d on node %d", table, part, host)
				}
				if got, want := o.Arena().Len(), stamps+cap*o.EntryWords(); got != want {
					t.Errorf("table %d partition %d on node %d: arena of %d words, want %d (%d entries)",
						table, part, host, got, want, cap)
				}
				if n, bound := o.Len(), min(cap, partSubs*keysPerSub[table]); n > bound {
					t.Errorf("table %d partition %d on node %d: %d tree entries, more than the partition's %d",
						table, part, host, n, bound)
				}
			}
		}
	}
}

// TestConcurrentSubscriberLifecycle: two executors delete, then re-create,
// the same subscriber at the same moment, over and over. Exactly one of each
// pair commits; the loser sees the row gone (or already there) as a benign
// race — in particular an Erase that staged the base row before the winner
// committed must not take the missing index row for index divergence — and
// the tables stay consistent.
func TestConcurrentSubscriberLifecycle(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	clients := []*tatp.Client{w.NewClient(db.Executor(0, 0), 1), w.NewClient(db.Executor(1, 0), 2)}
	both := func(op func(cl *tatp.Client) error) {
		t.Helper()
		before := db.Stats().Count("tx.commit")
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = op(cl)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		if got := db.Stats().Count("tx.commit") - before; got != 1 {
			t.Fatalf("%d of the two racing transactions committed, want exactly 1", got)
		}
	}
	for round := 0; round < 200; round++ {
		sid := uint64(1 + round%8) // homes alternate between the two nodes
		both(func(cl *tatp.Client) error { return cl.DeleteSubscriber(sid) })
		both(func(cl *tatp.Client) error { return cl.InsertSubscriber(sid, 0x1E) })
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSameSubscriberChurn: two clients, one per node, insert and delete the
// SAME few subscribers as fast as they can, unsynchronized, 100 000
// transactions between them (the repo benchmark keeps its clients' subscriber
// sets apart; this is what happens when nothing does). Each subscriber is
// local to one client and remote to the other, so batched remote declares race
// unlocked local ones. No panic — in particular no index-divergence panic from
// an erase that lost the race — no error other than the benign exists /
// not-found pair, and the tables stay consistent.
func TestSameSubscriberChurn(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	const perClient = 50_000
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := w.NewClient(db.Executor(i, 0), int64(i+1))
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for n := 0; n < perClient; n++ {
				sid := uint64(1 + rng.Intn(4))
				var err error
				if rng.Intn(2) == 0 {
					err = cl.DeleteSubscriber(sid)
				} else {
					err = cl.InsertSubscriber(sid, uint64(rng.Intn(15)+1)<<1)
				}
				if err != nil && !errors.Is(err, kvs.ErrExists) && !errors.Is(err, drtm.ErrNotFound) {
					errs[i] = fmt.Errorf("txn %d, subscriber %d: %w", n, sid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertExistingSubscriberReleasesBornSlots: an InsertSubscriber of a
// remote subscriber that exists, with facility rows it does not have, ends as
// a benign abort. The batch's host answered ErrExists for the subscriber row
// and created the fresh facility rows' slots born write-locked for the
// inserter; the abort releases every one of them.
func TestInsertExistingSubscriberReleasesBornSlots(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	const sid = 3 // odd: homed on node 1, remote to the client's node 0
	sub, ok := db.Get(tatp.TableSubscriber, sid)
	if !ok {
		t.Fatalf("subscriber %d missing", sid)
	}
	fresh := ^sub[1] & 0x1E
	if fresh == 0 {
		t.Fatalf("subscriber %d has every facility row", sid)
	}
	born := db.Stats().Count("lock.born")
	if err := w.NewClient(db.Executor(0, 0), 1).InsertSubscriber(sid, fresh); err != nil {
		t.Fatalf("InsertSubscriber of an existing subscriber = %v, want a benign abort", err)
	}
	sf := db.RT.C.Node(1).Ordered(tatp.TableSpecialFacility)
	created := int64(0)
	for ty := 1; ty <= tatp.NumSFTypes; ty++ {
		if fresh&(1<<uint(ty)) == 0 {
			continue
		}
		created++
		off, ok := sf.Lookup(tatp.SFKey(sid, ty))
		if !ok {
			t.Fatalf("facility row %d/%d has no slot", sid, ty)
		}
		if kvs.Live(kvs.Incarnation(sf.Arena().LoadWord(kvs.IncVerOffset(off)))) {
			t.Fatalf("facility row %d/%d is live after the abort", sid, ty)
		}
		if s := sf.Arena().LoadWord(kvs.StateOffset(off)); s != 0 {
			t.Fatalf("facility row %d/%d state = %#x after the abort, want Init", sid, ty, s)
		}
	}
	if got := db.Stats().Count("lock.born") - born; got != created {
		t.Fatalf("%d slots born held, want the %d fresh facility rows", got, created)
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}
