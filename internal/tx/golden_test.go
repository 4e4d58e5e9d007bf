package tx

import (
	"fmt"
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// goldenRow is what one scripted scenario cost on the worker's queue pair:
// modeled nanoseconds, one-sided verbs by kind, polled doorbell batches and
// two-sided messages, plus the error class the staging call returned.
type goldenRow struct {
	ns, reads, cases, writes, batches, msgs int64
	err                                     string
}

// measureRow runs fn on e and returns what it cost: the modeled time on the
// worker's clock and the verbs counted in the worker's shard.
func measureRow(e *Executor, fn func() error) (goldenRow, error) {
	sh := e.w.Obs
	verbs := func() goldenRow {
		return goldenRow{ns: int64(e.w.VClock.Now()),
			reads: sh.Count(obs.EvRDMARead), cases: sh.Count(obs.EvRDMACAS), writes: sh.Count(obs.EvRDMAWrite),
			batches: sh.Count(obs.EvRDMABatch), msgs: sh.Count(obs.EvVerbsMsg)}
	}
	v0 := verbs()
	err := fn()
	v := verbs()
	return goldenRow{ns: v.ns - v0.ns, reads: v.reads - v0.reads, cases: v.cases - v0.cases,
		writes: v.writes - v0.writes, batches: v.batches - v0.batches, msgs: v.msgs - v0.msgs}, err
}

func (r goldenRow) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %q}",
		r.ns, r.reads, r.cases, r.writes, r.batches, r.msgs, r.err)
}

// goldenRig is a two-node cluster whose soft-clock timers never start (no
// timer thread, so no false HTM aborts) and whose leases outlast the test by
// days: every lease the script installs is either far in the future or
// (end = 1, 2 µs) long expired, and nothing depends on a real-time window.
func goldenRig(t *testing.T, p ReadPolicy) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	c := cluster.New(cfg)
	rt := NewRuntime(c, func(table int, key uint64) int { return int(key) % 2 })
	rt.ReadPolicy = p
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	for k := 1; k <= 64; k++ {
		if err := c.Node(k%2).Unordered(tblAccounts).Insert(uint64(k), []uint64{1000, uint64(k)}); err != nil {
			t.Fatalf("populate %d: %v", k, err)
		}
	}
	// The scripted expired leases end at 1 and 2 µs of process time.
	for clock.NowMicros() < 4+c.Delta() {
		time.Sleep(time.Millisecond)
	}
	return rt, rt.Executor(0, 0)
}

// TestHashPathGolden pins the whole Tx hash-table record path — modeled
// nanoseconds and READ / CAS / WRITE / batch / message counts — for a fixed
// single-worker script under each read policy. It is the refactor oracle of
// the record-access path: the rows were captured on the commit before the
// acquisition state machine and the entry-image check were factored out, and
// must not move. (Moved five times on purpose; EXPERIMENTS.md has the tables.
// Once in the ns column only: Stage8's local read-then-write stopped paying a
// second hash probe when declared local records began to memoize their
// location per attempt. Once when the release side became one doorbell chain
// of WRITEs: a commit polls one wave instead of two, and every scripted release
// of a held lock is a WRITE in a polled wave where it was a serial unlock CAS —
// READs, messages and lock-stage CASes identical, modeled ns lower in every
// moved cell. Once when entries stopped carrying version chains by default:
// a remote write commits without its tail-pair and retired-slot WRITEs, two
// WRITEs and 400 ns fewer per written record in W and Stage8 — nothing else
// moved. Once when an upgrade became the lock arm: the "lease->lock upgrade"
// row's write waits out its own read's lease like any writer, so it moved to
// the lost attempt — the lease's two verbs and the lock CAS with its fused
// READ, 3 READs, 2 CASes, no WRITE, 3 batches — in every table, since the row
// forces PolicyLease; nothing else moved. Once when a worker with no log began
// leaving its release wave in flight: every row whose commit or release posts
// a WRITE fell in the ns column alone, by exactly that wave's slowest WRITE
// (1 204 ns for a commit's `incver ‖ INIT ‖ value`, 1 201 for a clean release)
// — the doorbells stay charged, and the script never waits for what a row left
// in flight, as each row's first verb outlasts it.)
func TestHashPathGolden(t *testing.T) {
	want := map[ReadPolicy][]goldenRow{
		PolicyLease:     goldenLease,
		PolicyExclusive: goldenExclusive,
		PolicyAdaptive:  goldenAdaptive,
	}
	for _, p := range []ReadPolicy{PolicyLease, PolicyExclusive, PolicyAdaptive} {
		t.Run(p.String(), func(t *testing.T) {
			got := runGoldenScript(t, p)
			exp := want[p]
			bad := len(got) != len(exp)
			for i := 0; !bad && i < len(got); i++ {
				bad = got[i] != exp[i]
			}
			if !bad {
				return
			}
			for i, g := range got {
				mark := ""
				if i >= len(exp) || exp[i] != g {
					mark = " // MOVED"
				}
				t.Logf("\t%v, // %s%s", g, goldenNames[i], mark)
			}
			t.Fatalf("hash path moved under policy %v (rows above are the observed table)", p)
		})
	}
}

var goldenNames = []string{
	"R", "W", "Stage8", "not found",
	"lease share (read)", "leased (write)",
	"expired takeover (read)", "expired takeover (write)",
	"takeover lost (read)", "takeover lost (write)",
	"lease->lock upgrade", "spec->lock upgrade",
	"write-locked (read)", "write-locked (write)",
}

func runGoldenScript(t *testing.T, p ReadPolicy) []goldenRow {
	rt, e := goldenRig(t, p)
	host := rt.C.Node(1).Unordered(tblAccounts)
	setState := func(key uint64, w uint64) {
		off, ok := host.LookupLocal(key)
		if !ok {
			t.Fatalf("key %d missing", key)
		}
		host.Arena().StoreWord(kvs.StateOffset(off), w)
	}
	var rows []goldenRow
	measure := func(fn func() error) {
		row, err := measureRow(e, fn)
		if err != nil {
			row.err = err.Error()
		}
		rows = append(rows, row)
	}
	// direct stages one record on a bare transaction and releases it, so a
	// conflict is reported once instead of retried against a scripted word.
	// Reads follow Tx.R: PolicyExclusive locks them.
	direct := func(key uint64, write bool) func() error {
		return func() error {
			tx := e.newTx()
			err := tx.stageRemote(tblAccounts, key, 1, tblAccounts, 1, write || tx.policy == PolicyExclusive)
			tx.releaseLocks()
			return err
		}
	}
	far := clock.Shared(1 << 41)

	// R: one remote read, executed and committed.
	measure(func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, 1); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				_, err := lc.Read(tblAccounts, 1)
				return err
			})
		})
	})
	// W: one remote read-modify-write.
	measure(func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.W(tblAccounts, 3); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, err := lc.Read(tblAccounts, 3)
				if err != nil {
					return err
				}
				return lc.Write(tblAccounts, 3, []uint64{v[0] + 1, v[1]})
			})
		})
	})
	// Stage8: one batched declaration of 8 mixed records (3 remote reads,
	// 3 remote writes, a local read and a local write; one read repeated as
	// a write to take the free in-batch strengthening).
	measure(func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(
				Access{Table: tblAccounts, Key: 5, Write: false}, Access{Table: tblAccounts, Key: 7, Write: true},
				Access{Table: tblAccounts, Key: 9, Write: false}, Access{Table: tblAccounts, Key: 11, Write: true},
				Access{Table: tblAccounts, Key: 13, Write: false}, Access{Table: tblAccounts, Key: 15, Write: true},
				Access{Table: tblAccounts, Key: 2, Write: false}, Access{Table: tblAccounts, Key: 4, Write: true},
				Access{Table: tblAccounts, Key: 13, Write: true},
			); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range []uint64{5, 9, 2} {
					if _, err := lc.Read(tblAccounts, k); err != nil {
						return err
					}
				}
				for _, k := range []uint64{7, 11, 13, 15, 4} {
					v, err := lc.Read(tblAccounts, k)
					if err != nil {
						return err
					}
					if err := lc.Write(tblAccounts, k, []uint64{v[0] - 1, v[1]}); err != nil {
						return err
					}
				}
				return nil
			})
		})
	})
	// Not found: a remote key that was never inserted.
	measure(direct(201, false))

	// Lease share / leased: an unexpired foreign lease on the word.
	setState(17, far)
	measure(direct(17, false))
	setState(19, far)
	measure(direct(19, true))

	// Expired-lease takeover, read and write.
	setState(21, clock.Shared(1))
	measure(direct(21, false))
	setState(23, clock.Shared(1))
	measure(direct(23, true))

	// Takeover lost: two requests for ONE record in one wave both observe the
	// expired lease and both arm the takeover; the second loses it to the
	// first. In read mode the transaction's own desired lease end is itself
	// expired (2 µs), so the loser sees an expired word again and runs the
	// whole restart-from-free-word / second-takeover sequence; in write mode
	// it finds the winner's lock and reports the conflict.
	lost := func(key uint64, write bool) func() error {
		return func() error {
			tx := e.newTx()
			tx.policy = PolicyLease
			tx.leaseEnd = 2
			s1 := tx.gatherRemote(tblAccounts, key, 1, tblAccounts, 1, write)
			s2 := tx.gatherRemote(tblAccounts, key, 1, tblAccounts, 1, write)
			err := tx.stageBatch([]*stageReq{s1, s2})
			tx.releaseLocks()
			return err
		}
	}
	setState(25, clock.Shared(1))
	measure(lost(25, false))
	setState(27, clock.Shared(1))
	measure(lost(27, true))

	// Upgrades: a record staged for read, then declared for write.
	upgrade := func(key uint64, from ReadPolicy) func() error {
		return func() error {
			tx := e.newTx()
			tx.policy = from
			if err := tx.stageRemote(tblAccounts, key, 1, tblAccounts, 1, false); err != nil {
				return err
			}
			err := tx.stageRemote(tblAccounts, key, 1, tblAccounts, 1, true)
			tx.releaseLocks()
			return err
		}
	}
	measure(upgrade(29, PolicyLease))
	measure(upgrade(31, PolicyAdaptive))

	// Write-locked by another machine.
	setState(33, clock.WLocked(7))
	measure(direct(33, false))
	setState(35, clock.WLocked(7))
	measure(direct(35, true))
	// A detached wave's latency is never waited out inside the script: each
	// scenario's next verb outlasts what the last one left in flight.
	if n := e.w.Obs.Count(obs.EvInflightWaitNS); n != 0 {
		t.Errorf("the script waited %d ns for work left in flight", n)
	}
	return rows
}

// The golden tables, one row per goldenNames entry:
// {modeled ns, READs, CASes, WRITEs, batches, messages, error}.
var (
	goldenLease = []goldenRow{
		{16774, 2, 1, 0, 2, 0, ""},                                // R
		{16974, 2, 1, 1, 3, 0, ""},                                // W
		{20742, 12, 6, 4, 3, 0, ""},                               // Stage8
		{1719, 1, 0, 0, 1, 0, "tx: record not found"},             // not found
		{16619, 2, 1, 0, 2, 0, ""},                                // lease share (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // leased (write)
		{31519, 3, 2, 0, 3, 0, ""},                                // expired takeover (read)
		{31719, 3, 2, 1, 4, 0, ""},                                // expired takeover (write)
		{62319, 8, 6, 0, 5, 0, ""},                                // takeover lost (read)
		{32719, 6, 4, 1, 4, 0, "tx: conflict, retry transaction"}, // takeover lost (write)
		{31519, 3, 2, 0, 3, 0, "tx: conflict, retry transaction"}, // lease->lock upgrade
		{18525, 3, 1, 1, 4, 0, ""},                                // spec->lock upgrade
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // write-locked (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // write-locked (write)
	}
	goldenExclusive = []goldenRow{
		{16974, 2, 1, 1, 3, 0, ""},                                // R
		{16974, 2, 1, 1, 3, 0, ""},                                // W
		{21142, 12, 6, 6, 3, 0, ""},                               // Stage8
		{1719, 1, 0, 0, 1, 0, "tx: record not found"},             // not found
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // lease share (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // leased (write)
		{31719, 3, 2, 1, 4, 0, ""},                                // expired takeover (read)
		{31719, 3, 2, 1, 4, 0, ""},                                // expired takeover (write)
		{62319, 8, 6, 0, 5, 0, ""},                                // takeover lost (read)
		{32719, 6, 4, 1, 4, 0, "tx: conflict, retry transaction"}, // takeover lost (write)
		{31519, 3, 2, 0, 3, 0, "tx: conflict, retry transaction"}, // lease->lock upgrade
		{18525, 3, 1, 1, 4, 0, ""},                                // spec->lock upgrade
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // write-locked (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // write-locked (write)
	}
	goldenAdaptive = []goldenRow{
		{5282, 3, 0, 0, 3, 0, ""},                                 // R
		{16974, 2, 1, 1, 3, 0, ""},                                // W
		{23750, 14, 4, 4, 5, 0, ""},                               // Stage8
		{1719, 1, 0, 0, 1, 0, "tx: record not found"},             // not found
		{3425, 2, 0, 0, 2, 0, ""},                                 // lease share (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // leased (write)
		{3425, 2, 0, 0, 2, 0, ""},                                 // expired takeover (read)
		{31719, 3, 2, 1, 4, 0, ""},                                // expired takeover (write)
		{62319, 8, 6, 0, 5, 0, ""},                                // takeover lost (read)
		{32719, 6, 4, 1, 4, 0, "tx: conflict, retry transaction"}, // takeover lost (write)
		{31519, 3, 2, 0, 3, 0, "tx: conflict, retry transaction"}, // lease->lock upgrade
		{18525, 3, 1, 1, 4, 0, ""},                                // spec->lock upgrade
		{3425, 2, 0, 0, 2, 0, "tx: conflict, retry transaction"},  // write-locked (read)
		{16619, 2, 1, 0, 2, 0, "tx: conflict, retry transaction"}, // write-locked (write)
	}
)
