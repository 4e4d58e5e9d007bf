package tx

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/obs"
)

// fbGoldenRig is goldenRig with an indexed ordered table beside the hash
// table and an HTM region that holds two written lines (what a kvs insert
// needs): any transaction writing three local lines takes a capacity abort
// into the software fallback. Timers never start and leases outlast the test,
// so nothing waits on real time.
// Hash key k is homed on node k%2, ordered entity e on node e%2; the executor
// runs on node 0.
func fbGoldenRig(t *testing.T, mut func(*cluster.Config), window int) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	cfg.HTM = htm.Config{WriteLines: 2, ReadLines: 4096}
	if mut != nil {
		mut(&cfg)
	}
	c := cluster.New(cfg)
	rt := NewRuntime(c, func(table int, key uint64) int {
		if table == tblAccounts {
			return int(key) % 2
		}
		return int(key>>8) % 2
	})
	rt.BatchWindow = window
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	rt.DefineOrderedSeg(tblOrders, 1024, 2, 8)
	rt.DefineOrderedSeg(tblOrderIdx, 1024, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF }})
	e := rt.Executor(0, 0)
	for k := uint64(1); k <= 64; k++ {
		if err := e.Exec(func(tx *Tx) error {
			return tx.Execute(func(lc *Local) error {
				lc.Insert(tblAccounts, k, []uint64{1000, k})
				return nil
			})
		}); err != nil {
			t.Fatalf("populate %d: %v", k, err)
		}
	}
	insertOrders(t, e, 0, []uint64{1, 2})
	insertOrders(t, e, 1, []uint64{1, 2})
	return rt, e
}

var fbGoldenNames = []string{
	"hash rw: 4 local + 2 remote writes, 1 local + 1 remote read",
	"clean write locks: 1 local + 1 remote, beside 3 local writes",
	"insert of an indexed row, local, beside 3 local writes",
	"insert of an indexed row, remote, beside 3 local writes",
	"erase of an indexed row, local, beside 3 local writes",
	"erase of an indexed row, remote, beside 3 local writes",
}

// runFallbackGoldenScript commits the scripted transactions, each through one
// capacity abort into the fallback, and reports what each cost on the
// worker's queue pair.
func runFallbackGoldenScript(t *testing.T, mut func(*cluster.Config), window int) []goldenRow {
	rt, e := fbGoldenRig(t, mut, window)
	bump := func(lc *Local, keys ...uint64) error {
		for _, k := range keys {
			v, err := lc.Read(tblAccounts, k)
			if err != nil {
				return err
			}
			if err := lc.Write(tblAccounts, k, []uint64{v[0] + 1, v[1]}); err != nil {
				return err
			}
		}
		return nil
	}
	declare := func(tx *Tx, write bool, keys ...uint64) error {
		for _, k := range keys {
			if err := tx.Stage(Access{Table: tblAccounts, Key: k, Write: write}); err != nil {
				return err
			}
		}
		return nil
	}
	scripts := []func(tx *Tx) error{
		func(tx *Tx) error {
			if err := declare(tx, true, 2, 4, 6, 8, 1, 3); err != nil {
				return err
			}
			if err := declare(tx, false, 10, 5); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range []uint64{10, 5} {
					if _, err := lc.Read(tblAccounts, k); err != nil {
						return err
					}
				}
				return bump(lc, 2, 4, 6, 8, 1, 3)
			})
		},
		func(tx *Tx) error {
			if err := declare(tx, true, 12, 14, 16, 18, 7); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return bump(lc, 12, 14, 16) })
		},
		func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, orderedKey(0, 50), []uint64{5, 50}); err != nil {
				return err
			}
			if err := declare(tx, true, 20, 22, 24); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return bump(lc, 20, 22, 24) })
		},
		func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, orderedKey(1, 50), []uint64{5, 50}); err != nil {
				return err
			}
			if err := declare(tx, true, 26, 28, 30); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return bump(lc, 26, 28, 30) })
		},
		func(tx *Tx) error {
			if _, err := tx.Erase(tblOrders, orderedKey(0, 1)); err != nil {
				return err
			}
			if err := declare(tx, true, 32, 34, 36); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return bump(lc, 32, 34, 36) })
		},
		func(tx *Tx) error {
			if _, err := tx.Erase(tblOrders, orderedKey(1, 1)); err != nil {
				return err
			}
			if err := declare(tx, true, 38, 40, 42); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return bump(lc, 38, 40, 42) })
		},
	}
	var rows []goldenRow
	for i, script := range scripts {
		f0, k0 := rt.C.Obs.Total(obs.EvFallback), rt.C.Obs.Total(obs.EvTxCommit)
		row, err := measureRow(e, func() error { return e.Exec(script) })
		if err != nil {
			t.Fatalf("%s: %v", fbGoldenNames[i], err)
		}
		if f, k := rt.C.Obs.Total(obs.EvFallback)-f0, rt.C.Obs.Total(obs.EvTxCommit)-k0; f != 1 || k != 1 {
			t.Fatalf("%s: %d fallbacks for %d commits, want one of each", fbGoldenNames[i], f, k)
		}
		rows = append(rows, row)
	}
	// What the script left behind: the rows it wrote, and no lock.
	for _, k := range []uint64{2, 4, 6, 8, 1, 3, 12, 14, 16, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42} {
		if v, _ := rt.C.Node(int(k) % 2).Unordered(tblAccounts).Get(k); len(v) != 2 || v[0] != 1001 {
			t.Errorf("hash key %d = %v, want [1001 %d]", k, v, k)
		}
	}
	for ent := uint64(0); ent < 2; ent++ {
		if v, live := liveOrderedVal(rt, int(ent), tblOrders, orderedKey(ent, 50)); !live || v[0] != 5 {
			t.Errorf("entity %d: inserted row = %v, live %v", ent, v, live)
		}
		if v, live := liveOrderedVal(rt, int(ent), tblOrderIdx, orderedKey(ent, 50)); !live || v[0] != orderedKey(ent, 50) {
			t.Errorf("entity %d: inserted index row = %v, live %v", ent, v, live)
		}
		for _, table := range []int{tblOrders, tblOrderIdx} {
			if _, live := liveOrderedVal(rt, int(ent), table, orderedKey(ent, 1)); live {
				t.Errorf("entity %d: table %d row still live after its erase", ent, table)
			}
		}
	}
	for _, table := range []int{tblOrders, tblOrderIdx} {
		if k := lockedKeys(rt, table); len(k) > 0 {
			t.Errorf("table %d keys %#x left locked", table, k)
		}
	}
	// A detached wave's latency is never waited out inside the script: each
	// scenario's next verb outlasts what the last one left in flight.
	if n := e.w.Obs.Count(obs.EvInflightWaitNS); n != 0 {
		t.Errorf("the script waited %d ns for work left in flight", n)
	}
	return rows
}

// TestFallbackGolden pins the software fallback's cost — modeled nanoseconds
// and READ / CAS / WRITE / batch / message counts of scripted transactions —
// with logging off and on, one backup per partition, and under
// BatchWindow = 1, which posts every verb of a wave on its own.
// It is the refactor oracle of the commit path: the verb and message counts
// were captured on the commit before the fallback started committing through
// the region path's routines and did not move; the modeled nanoseconds fell
// (the same WRITEs, posted as two doorbell waves) and the batch counts moved
// with them (EXPERIMENTS.md has both tables). The nanoseconds fell once more,
// alone, with the per-attempt location memo and the leaf fingers: the region
// attempt each script aborts out of probes once per read-then-written record,
// and the fallback's lookups of adjacent local ordered rows hit the finger.
// Then the release side became one doorbell chain of WRITEs: the restage's
// releases of the Start phase's locks and the commit's clean releases are
// WRITEs in a polled wave where they were serial unlock CASes (CAS down by
// exactly what WRITE is up), and value, chain and release share the commit's
// one wave — READs and messages identical, modeled ns lower in every moved cell.
// Then every shipped lookup's reply began to carry the entry it found (the
// image a speculative read consumes; the fallback's locked reads ignore it):
// the two remote ordered rows, in the ns column only, by 0.15 ns per byte of
// image on the replies of their lookups (+11 and +22 in every table).
// Then the redo record lost its stamp word: an update's header is 7 words,
// not 8, so each redo append is 8 bytes shorter per update, and the replicated
// table moved in the ns column alone (4 to 7 ns per row); every count and
// every other table stood.
// Then a remote insert's fresh slots — the row's and its index row's — came to
// be born write-locked for the inserter by the EnsureDeads that create them, so
// the Start phase takes them with no CAS and no fused READ: the remote insert
// row alone, in every table, 2 CASes and 2 READs fewer, one wave fewer (four
// under BatchWindow = 1), 15 293 ns fewer (32 802 serial); the restage still
// releases them and the fallback's take still CASes the slots it then finds.
// Then a worker with no log began leaving its release waves in flight, and
// every removal became a one-way message, in the ns column alone: a moved cell
// fell by exactly what was left in flight — the slowest WRITE of the restage's
// release wave and of the commit's chain (about 1 200 ns each, in the plain and
// serial tables), and a removal message's reply plus its request less one
// doorbell (5 814 ns for one message of two entries, in every table; the serial
// table's remote erase sends two). The durable and replicated tables' chains
// were still awaited, so only their remote erase moved.
// Then a worker with backups began leaving its release waves in flight too:
// the replicated table alone, in the ns column alone, each row down by exactly
// what its detached waves left in flight per the wave ledger (the stages'
// WaveStats.Inflight) — 2 405 ns for a restage's release wave and a commit's
// chain, 1 204 ns for the local insert's and erase's chain alone. The durable
// table's chains are still awaited.
// Then the write-ahead record became the redo record: two header words more
// per update, priced by NVRAMAppend at 0.12 ns per byte — the durable table
// alone, in the ns column alone, 5 to 11 ns per row.
func TestFallbackGolden(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		mut    func(*cluster.Config)
		window int // Runtime.BatchWindow
		want   []goldenRow
	}{
		{"plain", nil, 0, fbGoldenPlain},
		{"durable", func(c *cluster.Config) { c.Durability = true }, 0, fbGoldenDurable},
		{"replicated", func(c *cluster.Config) { c.ReplicationFactor = 1 }, 0, fbGoldenReplicated},
		{"serial", nil, 1, fbGoldenSerial},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			got := runFallbackGoldenScript(t, cfg.mut, cfg.window)
			bad := len(got) != len(cfg.want)
			for i := 0; !bad && i < len(got); i++ {
				bad = got[i] != cfg.want[i]
			}
			if !bad {
				return
			}
			for i, g := range got {
				mark := ""
				if i >= len(cfg.want) || cfg.want[i] != g {
					mark = " // MOVED"
				}
				t.Logf("\t%v, // %s%s", g, fbGoldenNames[i], mark)
			}
			t.Fatalf("fallback path moved under %s (rows above are the observed table)", cfg.name)
		})
	}
}

// The fallback golden tables, one row per fbGoldenNames entry:
// {modeled ns, READs, CASes, WRITEs, batches, messages, ""}.
var (
	fbGoldenPlain = []goldenRow{
		{174146, 9, 11, 8, 8, 0, ""}, // hash rw
		{93372, 3, 6, 6, 4, 0, ""},   // clean write locks
		{76595, 0, 5, 5, 1, 0, ""},   // insert, local
		{98037, 2, 5, 7, 2, 3, ""},   // insert, remote
		{76715, 0, 5, 5, 1, 0, ""},   // erase, local
		{134843, 4, 7, 7, 4, 5, ""},  // erase, remote
	}
	fbGoldenDurable = []goldenRow{
		{177170, 9, 11, 8, 8, 0, ""}, // hash rw
		{96364, 3, 6, 6, 4, 0, ""},   // clean write locks
		{77539, 0, 5, 5, 1, 0, ""},   // insert, local
		{101049, 2, 5, 7, 2, 3, ""},  // insert, remote
		{78336, 0, 5, 5, 1, 0, ""},   // erase, local
		{137852, 4, 7, 7, 4, 5, ""},  // erase, remote
	}
	fbGoldenReplicated = []goldenRow{
		{176013, 9, 11, 8, 9, 0, ""}, // hash rw
		{95006, 3, 6, 6, 5, 0, ""},   // clean write locks
		{78250, 0, 5, 5, 2, 0, ""},   // insert, local
		{99892, 2, 5, 7, 3, 3, ""},   // insert, remote
		{78366, 0, 5, 5, 2, 0, ""},   // erase, local
		{136694, 4, 7, 7, 5, 5, ""},  // erase, remote
	}
	// BatchWindow = 1: every posted verb is a wave of its own, so the commit
	// costs what the serial publish did plus one doorbell per WRITE.
	fbGoldenSerial = []goldenRow{
		{185885, 9, 11, 8, 17, 0, ""}, // hash rw
		{99691, 3, 6, 6, 9, 0, ""},    // clean write locks
		{81411, 0, 5, 5, 5, 0, ""},    // insert, local
		{110057, 2, 5, 7, 7, 4, ""},   // insert, remote
		{81529, 0, 5, 5, 5, 0, ""},    // erase, local
		{144068, 4, 7, 7, 11, 6, ""},  // erase, remote
	}
)
