package tx

import (
	"errors"
	"fmt"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// What happens to a row between the Start phase (Stage, Scan, an RO's Read)
// and the commit point.
type rowEvent int

const (
	evNothing      rowEvent = iota
	evBump                  // a write committed: the version moved
	evLocked                // a writer holds the row mid-commit
	evRecycled              // the slot now holds another key
	evPhantom               // a key was inserted into the scanned range
	evLeaseExpired          // the read's lease ran out
)

var rowEventNames = [...]string{"nothing", "bump", "locked", "recycled", "phantom", "lease expired"}

// The three commit points validate serves.
type commitPoint int

const (
	cpRegion commitPoint = iota
	cpFallback
	cpReadOnly
)

var commitPointNames = [...]string{"region", "fallback", "read-only"}

const tblHashRows = 9 // a hash table beside newOrderedRig's tblOrders, keyed alike

// verdictCase is one combination of TestValidateVerdicts.
type verdictCase struct {
	cp      commitPoint
	ordered bool
	remote  bool
	scan    bool // the row is read by a range scan, not by key
	ev      rowEvent
}

func (c verdictCase) String() string {
	table, row, read := "hash", "local", "point"
	if c.ordered {
		table = "ordered"
	}
	if c.remote {
		row = "remote"
	}
	if c.scan {
		read = "scan"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", commitPointNames[c.cp], table, row, read, rowEventNames[c.ev])
}

// exists reports whether the combination can happen: scans, recycled slots and
// phantoms are ordered-table things, a lease is a point read's, and the region
// reads this node's records inside itself, validating none.
func (c verdictCase) exists() bool {
	switch {
	case !c.ordered && (c.scan || c.ev == evRecycled || c.ev == evPhantom):
		return false
	case c.scan && c.ev == evLeaseExpired, !c.scan && c.ev == evPhantom:
		return false
	case c.cp == cpRegion && !c.scan && !c.remote:
		return false
	}
	return true
}

// want is the verdict: the cause names what failed. A lease that ran out fails
// the attempt unless it may have waited — the fallback — which re-validates
// the header instead, and finds it unchanged.
func (c verdictCase) want() (ok bool, cause obs.AbortCause) {
	switch {
	case c.ev == evNothing, c.ev == evLeaseExpired && c.cp == cpFallback:
		return true, obs.CauseNone
	case c.ev == evLeaseExpired:
		return false, obs.CauseLease
	case c.scan:
		return false, obs.CauseScan
	}
	return false, obs.CauseSpec
}

var errStop = errors.New("first attempt judged")

// leasesNeverExpire makes a lease run out only when a test says so, so nothing
// depends on real time.
func leasesNeverExpire(c *cluster.Config) { c.LeaseMicros, c.ROLeaseMicros = 1<<40, 1<<40 }

// TestValidateVerdicts: one verdict at every commit point. For every
// combination of commit point, table, row locality, read kind and what
// happened to the row between the Start phase and the commit point, the first
// attempt commits or fails with the cause that names what failed, and the
// counters follow the cause: spec.validate_fail counts the failed record,
// scan.validate_fail the failed scan word, lease.confirm_fail a lease that ran
// out outside the region (htm.lease_abort inside it), and validate is observed
// once when there was anything to re-read. The writer is scripted on the
// arena itself, between Stage / Scan and Execute (the region), in the body
// (the fallback, which takes its records there) or before the confirmation
// (read-only). A point read is speculative except under evLeaseExpired, where
// it is leased; the fallback leases every read, so the events that need a
// writer at a leased row come with the lease run out, as a waited attempt's
// can. Leases run out only when the test says so.
func TestValidateVerdicts(t *testing.T) {
	var cases []verdictCase
	for cp := cpRegion; cp <= cpReadOnly; cp++ {
		for _, ordered := range []bool{false, true} {
			for _, remote := range []bool{false, true} {
				for _, scan := range []bool{false, true} {
					for ev := evNothing; ev <= evLeaseExpired; ev++ {
						if c := (verdictCase{cp, ordered, remote, scan, ev}); c.exists() {
							cases = append(cases, c)
						}
					}
				}
			}
		}
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) { runVerdictCase(t, c) })
	}
}

func runVerdictCase(t *testing.T, c verdictCase) {
	rt, stop := newOrderedRig(t, 2, 1, leasesNeverExpire)
	defer stop()
	rt.DefineUnordered(tblHashRows, 64, 64, 64, 2)
	entity := uint64(0) // homed on node 0, the executor's
	if c.remote {
		entity = 1
	}
	host := rt.C.Node(int(entity))
	key, companion := orderedKey(entity, 1), orderedKey(entity, 2)
	table := tblHashRows
	var arena *memory.Arena
	for _, k := range []uint64{key, companion} {
		val := []uint64{100 * (k & 0xFF), k & 0xFF}
		if err := host.Ordered(tblOrders).Insert(k, val); err != nil {
			t.Fatal(err)
		}
		if err := host.Unordered(tblHashRows).Insert(k, val); err != nil {
			t.Fatal(err)
		}
	}
	off, _ := host.Unordered(tblHashRows).LookupLocal(key)
	arena = host.Unordered(tblHashRows).Arena()
	if c.ordered {
		table = tblOrders
		off, _ = host.Ordered(tblOrders).Lookup(key)
		arena = host.Ordered(tblOrders).Arena()
	}
	lo, hi := orderedKey(entity, 0), orderedKey(entity, 0x0F)
	rt.ReadPolicy = PolicyAdaptive
	if c.ev == evLeaseExpired {
		rt.ReadPolicy = PolicyLease
	}
	if c.cp == cpFallback {
		rt.FallbackThreshold = 1
	}

	// happen applies the event; index is where the staged point read is found.
	happen := func(index map[refKey]*remoteRec) {
		if !c.scan && (c.ev == evLeaseExpired || c.cp == cpFallback && c.ev != evNothing) {
			index[refKey{table, key}].leaseEnd = 0
		}
		switch c.ev {
		case evBump:
			arena.StoreWord(kvs.IncVerOffset(off), arena.LoadWord(kvs.IncVerOffset(off))+1)
		case evLocked:
			arena.StoreWord(kvs.StateOffset(off), clock.WLocked(1))
		case evRecycled:
			arena.StoreWord(off+kvs.EntryKeyWord, orderedKey(entity, 0x77))
		case evPhantom:
			if err := host.Ordered(tblOrders).Insert(orderedKey(entity, 3), []uint64{300, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := rt.C.Obs
	e := rt.Executor(0, 0)
	var ok bool
	var cause obs.AbortCause
	if c.cp == cpReadOnly {
		ro := &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, policy: rt.ReadPolicy,
			end: e.w.Node.Clock.Read() + rt.C.Config().ROLeaseMicros}
		defer ro.release()
		var err error
		if c.scan {
			_, err = ro.Scan(tblOrders, lo, hi, 0)
		} else if _, err = ro.Read(table, key); err == nil {
			_, err = ro.Read(table, companion) // two records: no single-record rule
		}
		if err != nil {
			t.Fatal(err)
		}
		happen(ro.index)
		ok = ro.confirm()
		cause = ro.cause
	} else {
		err := e.Exec(func(tx *Tx) error {
			var err error
			if c.scan {
				_, err = tx.Scan(tblOrders, lo, hi, 0)
			} else {
				err = tx.R(table, key)
			}
			if err != nil {
				return err
			}
			if c.cp == cpRegion {
				happen(tx.index)
			}
			err = tx.Execute(func(lc *Local) error {
				if c.cp == cpFallback {
					if lc.htx != nil {
						lc.htx.Abort(99) // on to the fallback
					}
					happen(tx.index)
				}
				return nil
			})
			ok, cause = err == nil, tx.lastAbort
			if err == ErrRetry {
				return errStop
			}
			return err
		})
		if err != nil && err != errStop {
			t.Fatal(err)
		}
		if c.cp == cpFallback && reg.Total(obs.EvFallback) != 1 {
			t.Fatalf("%d fallbacks, want 1", reg.Total(obs.EvFallback))
		}
	}

	wantOK, wantCause := c.want()
	if ok {
		cause = obs.CauseNone // a committed fallback keeps the region's abort as its last
	}
	if ok != wantOK || cause != wantCause {
		t.Fatalf("committed %v with cause %v, want %v with %v", ok, cause, wantOK, wantCause)
	}
	var specFails, scanFails, leaseFails, leaseAborts, observed int64
	switch wantCause {
	case obs.CauseSpec:
		specFails, observed = 1, 1
	case obs.CauseScan:
		scanFails, observed = 1, 1
	case obs.CauseLease:
		if c.cp == cpRegion {
			leaseAborts = 1
		} else {
			leaseFails = 1
		}
	default: // something to re-read: a speculative read, an outwaited lease, a scan
		if c.scan || c.cp != cpFallback || c.ev == evLeaseExpired {
			observed = 1
		}
	}
	for _, n := range []struct {
		name      string
		got, want int64
	}{
		{"spec.validate_fail", reg.Total(obs.EvSpecValidateFail), specFails},
		{"scan.validate_fail", reg.Total(obs.EvScanValidateFail), scanFails},
		{"lease.confirm_fail", reg.Total(obs.EvLeaseConfirmFail), leaseFails},
		{"htm.lease_abort", reg.Total(obs.EvHTMLeaseAbort), leaseAborts},
		{"validate observations", reg.Snapshot().Phases[obs.PhaseValidate].Count, observed},
	} {
		if n.got != n.want {
			t.Errorf("%s = %d, want %d", n.name, n.got, n.want)
		}
	}
}

// TestValidateSeesARowAsOneLine: outside the region validate loads an entry
// header as one seqlocked line, so a row caught mid-commit — its value WRITE
// landed, its `incver ‖ INIT` WRITE not yet: value new, incver old, state
// locked — fails, both as a scanned row and as a row whose lease the attempt
// outwaited. Loaded word by word, the scanned row's incver and state could
// straddle that second WRITE and pass a value that had already changed.
func TestValidateSeesARowAsOneLine(t *testing.T) {
	for _, entity := range []uint64{0, 1} { // a local row, a remote one
		rt, stop := newOrderedRig(t, 2, 1, nil)
		e := rt.Executor(0, 0)
		insertOrders(t, e, entity, []uint64{1})
		key := orderedKey(entity, 1)
		o := rt.C.Node(int(entity)).Ordered(tblOrders)
		off, _ := o.Lookup(key)
		a := o.Arena()
		orig := make([]uint64, 2)
		a.Read(orig, kvs.ValueOffset(off))
		midCommit := func() {
			a.StoreWord(kvs.StateOffset(off), clock.WLocked(1))
			a.Write(kvs.ValueOffset(off), []uint64{999, 1})
		}
		committed := func() {
			a.Write(kvs.ValueOffset(off), orig)
			a.StoreWord(kvs.StateOffset(off), clock.Init)
		}

		ro := &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, policy: PolicyAdaptive}
		if _, err := ro.Scan(tblOrders, key, key, 0); err != nil {
			t.Fatal(err)
		}
		midCommit()
		if code, _ := ro.validate(nil, false); code != abortCodeScan {
			t.Errorf("entity %d: a scanned row mid-commit validated with code %d, want abortCodeScan", entity, code)
		}
		ro.release()
		committed()

		ro = &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, policy: PolicyLease, waits: true,
			end: e.w.Node.Clock.Read() + rt.C.Config().ROLeaseMicros}
		if _, err := ro.Read(tblOrders, key); err != nil {
			t.Fatal(err)
		}
		ro.recs[0].leaseEnd = 0
		midCommit()
		if code, _ := ro.validate(nil, true); code != abortCodeSpec {
			t.Errorf("entity %d: an outwaited row mid-commit validated with code %d, want abortCodeSpec", entity, code)
		}
		ro.release()
		stop()
	}
}

// TestFallbackMovedHeaderTracesSpec: a fallback attempt that loses on a moved
// header is a failed read — traced CauseSpec and counted in
// spec.validate_fail — not a failed lease: the lease ran out honestly while
// the attempt waited, and the header decided. The second attempt's region
// reads the softtime word for its lease, so the rig starts no timers (replRig):
// a tick there would abort that region into a second fallback too.
func TestFallbackMovedHeaderTracesSpec(t *testing.T) {
	rt, e := replRig(t, func(*cluster.Config) {})
	rt.ReadPolicy = PolicyLease
	rt.FallbackThreshold = 1
	reg := rt.C.Obs
	reg.EnableTrace(4)
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(3)
	attempts := 0
	if err := e.Exec(func(tx *Tx) error {
		attempts++
		if err := tx.R(tblAccounts, 3); err != nil { // remote
			return err
		}
		return tx.Execute(func(lc *Local) error {
			if attempts > 1 {
				return nil
			}
			if lc.htx != nil {
				lc.htx.Abort(99) // on to the fallback
			}
			tx.index[refKey{tblAccounts, 3}].leaseEnd = 0
			a := host.Arena()
			a.StoreWord(kvs.IncVerOffset(off), a.LoadWord(kvs.IncVerOffset(off))+1)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || reg.Total(obs.EvFallback) != 1 {
		t.Fatalf("committed on attempt %d after %d fallbacks, want 2 after 1", attempts, reg.Total(obs.EvFallback))
	}
	if s, l := reg.Total(obs.EvSpecValidateFail), reg.Total(obs.EvLeaseConfirmFail); s != 1 || l != 0 {
		t.Errorf("spec.validate_fail %d, lease.confirm_fail %d; want 1, 0", s, l)
	}
	evs := reg.DrainTrace()
	if len(evs) != 1 || evs[0].Abort != obs.CauseSpec {
		t.Fatalf("trace %+v, want one commit whose last abort is %v", evs, obs.CauseSpec)
	}
}
