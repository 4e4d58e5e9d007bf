//go:build !race

package tx

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/nvram"
	"drtm/internal/obs"
)

// TestExecAllocSteadyState pins the pooled hot path: once the executor's
// pools are warm, what a committed transaction allocates is the new value the
// body builds (it escapes through Local.Write's index-key check) — one object
// measured, local or remote. The values Local.Read hands out, the HTM region,
// the commit waves and the remote lookup run from recycled scratch.
// The budget is what is measured plus one. Excluded under -race: the detector
// adds shadow allocations.
func TestExecAllocSteadyState(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 20, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	e := rt.Executor(0, 0)
	for i := 0; i < 16; i++ { // warm the pools
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	}
	local := testing.AllocsPerRun(50, func() {
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	})
	remote := testing.AllocsPerRun(50, func() {
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
	})
	if local > 2 {
		t.Errorf("local txn allocates %.0f objects, budget 2", local)
	}
	if remote > 2 {
		t.Errorf("remote spec txn allocates %.0f objects, budget 2", remote)
	}

	// The confirm-wave RO path over ten local and ten remote records allocates
	// nothing: the shell, its index, its staged records and the value buffers
	// the body reads from are recycled on the executor.
	rt.ReadPolicy = PolicyAdaptive
	for i := 0; i < 16; i++ {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	}
	ro20 := testing.AllocsPerRun(50, func() {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	})
	if ro20 > 0 {
		t.Errorf("20-record RO allocates %.0f objects, want 0", ro20)
	}

	// So does a confirm-wave RO scan, local or remote — TATP's
	// get_new_destination shape, a 256-key span with no limit: the host of a
	// remote range answers into the executor's scan buffers, and the scan
	// records are recycled with the shell.
	ort, ostop := newOrderedRig(t, 2, 1, nil)
	defer ostop()
	ort.ReadPolicy = PolicyAdaptive
	oe := ort.Executor(0, 0)
	insertOrders(t, oe, 0, []uint64{1, 2, 3})                    // entity 0: local
	insertOrders(t, ort.Executor(1, 0), 1, []uint64{1, 2, 3, 4}) // entity 1: remote
	for _, tc := range []struct {
		name   string
		entity uint64
		rows   int
	}{{"local", 0, 3}, {"remote", 1, 4}} {
		scan := func() {
			if err := oe.ExecRO(func(ro *RO) error {
				rows, err := ro.Scan(tblOrders, orderedKey(tc.entity, 0), orderedKey(tc.entity, 0xFF), 0)
				if err == nil && len(rows) != tc.rows {
					t.Fatalf("%s scan returned %d rows, want %d", tc.name, len(rows), tc.rows)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			scan()
		}
		if n := testing.AllocsPerRun(50, scan); n > 0 {
			t.Errorf("%s RO scan allocates %.0f objects, want 0", tc.name, n)
		}
	}
}

// TestValidateAllocSteadyState: the commit point's validate allocates nothing
// once the executor's wave buffer is warm — outside a region over every kind
// of step (a local and a remote speculative record of each table kind, an
// outwaited lease, a local and a remote scan), and inside one over the same set.
func TestValidateAllocSteadyState(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	rt.DefineUnordered(tblHashRows, 64, 64, 64, 2)
	e := rt.Executor(0, 0)
	ro := &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, policy: PolicyAdaptive}
	defer ro.release()
	for _, entity := range []uint64{0, 1} {
		for sub := uint64(1); sub <= 2; sub++ {
			key := orderedKey(entity, sub)
			if err := rt.C.Node(int(entity)).Unordered(tblHashRows).Insert(key, []uint64{sub, sub}); err != nil {
				t.Fatal(err)
			}
		}
		insertOrders(t, e, entity, []uint64{1, 2})
		if _, err := ro.Read(tblOrders, orderedKey(entity, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Read(tblHashRows, orderedKey(entity, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 0xFF), 0); err != nil {
			t.Fatal(err)
		}
	}
	ro.policy = PolicyLease
	ro.end = e.w.Node.Clock.Read() + rt.C.Config().ROLeaseMicros
	if _, err := ro.Read(tblHashRows, orderedKey(1, 2)); err != nil {
		t.Fatal(err)
	}
	ro.recs[len(ro.recs)-1].leaseEnd = 0 // outwaited: re-validated by header
	outside := func() {
		if code, _ := ro.validate(nil, true); code != 0 {
			t.Fatalf("outside a region: code %d", code)
		}
	}
	inside := func() {
		if err := e.w.Node.Engine.Run(func(htx *htm.Txn) error {
			if code, _ := ro.validate(htx, false); code != 0 {
				t.Errorf("inside a region: code %d", code)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	outside()
	inside()
	if n := testing.AllocsPerRun(50, outside); n != 0 {
		t.Errorf("validate outside a region allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(50, inside); n != 0 {
		t.Errorf("validate inside a region allocates %.0f objects, want 0", n)
	}
}

// TestOrderedAllocSteadyState pins the structural and shipped paths of
// Tx.Stage the same way: a remote insert of two indexed rows (four rows — the
// bases and their index rows — one shipped message, one CAS wave), the erase
// that undoes it (bases, then the owed index rows, then one removal message)
// and a remote two-record ordered read-write transaction run from the
// transaction's and the executor's scratch: the index rows' values, the
// shipped and removal messages and their envelope, the batch bookkeeping.
func TestOrderedAllocSteadyState(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF }})
	e := rt.Executor(0, 0)
	a, b := orderedKey(1, 1), orderedKey(1, 2) // entity 1 is homed on node 1: remote
	va, vb := []uint64{100, 11}, []uint64{200, 12}
	insert := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: a, Insert: va},
				Access{Table: tblOrders, Key: b, Insert: vb}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
	}
	erase := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: a, Erase: true},
				Access{Table: tblOrders, Key: b, Erase: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
	}
	readWrite := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrderIdx, Key: orderedKey(1, 11)},
				Access{Table: tblOrders, Key: a, Write: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, err := lc.Read(tblOrders, a)
				if err != nil {
					return err
				}
				return lc.Write(tblOrders, a, []uint64{v[0] + 1, v[1]})
			})
		})
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		must(insert())
		must(readWrite())
		must(erase())
	}
	must(insert())
	// Measured: 1 (the value the body builds) and 0. The budgets are that plus one.
	rw := testing.AllocsPerRun(50, func() { must(readWrite()) })
	must(erase())
	churn := testing.AllocsPerRun(50, func() {
		must(insert())
		must(erase())
	})
	if rw > 2 {
		t.Errorf("remote ordered read-write txn allocates %.0f objects, budget 2", rw)
	}
	if churn > 1 {
		t.Errorf("remote 4-row insert + erase allocates %.0f objects, budget 1", churn)
	}
}

// TestLocalOrderedAllocSteadyState pins the local ordered hot path — TPC-C
// delivery's shape: ten adjacent rows of one shard, each read and then written
// in the region — at zero objects per committed transaction once the pools
// are warm. The values Local.Read hands out and the write-ahead captures are
// carved from the transaction's per-attempt scratch, the record locations are
// memoized in the declared records, and the leaf finger is the executor's.
func TestLocalOrderedAllocSteadyState(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 1, func(c *cluster.Config) { c.Durability = true })
	defer stop()
	e := rt.Executor(0, 0)
	var keys []uint64
	for s := uint64(1); s <= 10; s++ {
		keys = append(keys, orderedKey(0, s))
	}
	insertOrders(t, e, 0, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rmw := func() {
		if err := bumpLocal(e, tblOrders, keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		rmw()
	}
	if n := testing.AllocsPerRun(50, rmw); n > 0 {
		t.Errorf("local read-modify-write of 10 adjacent ordered rows allocates %.0f objects, want 0", n)
	}
}

// TestReplicatedCommitAllocSteadyState pins the backup half of a replicated
// commit at zero objects: a two-row transaction — one local, one remote write
// — on a durable f = 1 rig, through the region's hold of its local row, the
// redo encode, the log-append wave into both backups' sinks (RemoteAppend's
// fence reads the record in place), the drains of the rings it fills past
// CheckpointWords and the local row's release; then a ring of 100 records
// drained by the append of the 101st, through applyRedo.
func TestReplicatedCommitAllocSteadyState(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	cfg.Durability = true
	cfg.ReplicationFactor = 1
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()
	rt := NewRuntime(c, func(_ int, key uint64) int { return int(key) % 2 })
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 2; n++ { // transactional inserts: mirrored to the replica shards
		must(rt.Executor(n, 0).Exec(func(tx *Tx) error {
			return tx.Execute(func(lc *Local) error {
				lc.Insert(tblAccounts, uint64(2+n), []uint64{1000, 0})
				lc.Insert(tblAccounts, uint64(4+n), []uint64{1000, 0})
				return nil
			})
		}))
	}

	e := rt.Executor(0, 0)
	val := make([]uint64, 2) // the body's scratch row: Local.Write copies
	commit := func() {
		must(e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblAccounts, Key: 2, Write: true},
				Access{Table: tblAccounts, Key: 3, Write: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range [...]uint64{2, 3} {
					v, err := lc.Read(tblAccounts, k)
					if err != nil {
						return err
					}
					val[0], val[1] = v[0]+1, v[1]
					if err := lc.Write(tblAccounts, k, val); err != nil {
						return err
					}
				}
				return nil
			})
		}))
	}
	drains := rt.C.Obs.Total(obs.EvRingDrain)
	for i := 0; i < 64; i++ { // warm the pools, the sinks' scan buffers included
		commit()
	}
	if n := testing.AllocsPerRun(200, commit); n != 0 {
		t.Errorf("replicated two-row commit allocates %.0f objects, want 0", n)
	}
	if rt.C.Obs.Total(obs.EvRingDrain) == drains {
		t.Error("no ring drained: the guard did not cover the drain a full ring's next append runs")
	}

	// A 100-record ring of successive versions of key 4 (partition 0, backed up
	// on node 1), its records not vouched for, drained into node 1's replica
	// shard by a 101st that is: the last record stays in the ring.
	sink := c.RedoSinkAt(1, 0, 0)
	replica := c.Node(1).Unordered(cluster.CopyRegion(0, tblAccounts, 1))
	ups := []nvram.RedoUpdate{{Part: 0, Epoch: cluster.ViewEpoch(c.View(0)), Table: tblAccounts, Key: 4, Val: val}}
	version := uint32(100)
	var rec []uint64
	drain := func() {
		for i := 0; i <= 100; i++ {
			version++
			ups[0].Version, val[0] = version, uint64(version)
			rec = nvram.EncodeRedo(rec, uint64(version), ups)
			if i == 100 {
				nvram.MarkRedoHome(rec)
			}
			must(sink.RemoteAppend(0, rec))
		}
	}
	drain()
	if n := testing.AllocsPerRun(20, drain); n != 0 {
		t.Errorf("drain of a 100-record ring allocates %.0f objects, want 0", n)
	}
	off, _ := replica.LookupLocal(4)
	if v, ok := replica.Get(4); !ok || v[0] != uint64(version-1) ||
		kvs.Version(replica.Arena().LoadWord(kvs.IncVerOffset(off))) != version-1 {
		t.Errorf("replica row = %v, %v after the drains; want value and version %d", v, ok, version-1)
	}
	if want := (1 + len(rec)) * 8; sink.BytesUsed() != want {
		t.Errorf("ring holds %d bytes after the drain, want the last record's %d", sink.BytesUsed(), want)
	}
}
