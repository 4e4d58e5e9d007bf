package tx

import (
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// TestAcquirerStep drives the pure Figure 5 state machine over
// (mode × observed word × expired?) with an explicit clock: lease expiry here
// is arithmetic on now, never a real-time window.
func TestAcquirerStep(t *testing.T) {
	const (
		me       = 3
		now      = 10_000
		delta    = 300
		wantEnd  = 20_000 // the lease end a read asks for
		liveEnd  = 12_000 // a foreign lease still running at now
		deadEnd  = 9_000  // a foreign lease expired at now (9000+300 < 10000)
		edgeEnd  = 9_700  // now == end+delta: inside the uncertainty window, NOT expired
		foreignW = 7
	)
	locked := clock.WLocked(me)
	type round struct {
		cur     uint64
		swapped bool
		verdict acqVerdict
		end     uint64
		old     uint64 // expected word armed for the next round (acqAgain only)
		at      uint64 // soft time of the round, 0 for now
	}
	cases := []struct {
		name     string
		mode     acqMode
		leaseEnd uint64
		waits    bool
		rounds   []round
		events   map[obs.Event]int64
	}{
		{"lease: free word", acqLease, wantEnd, false,
			[]round{{clock.Init, true, acqWon, wantEnd, 0, 0}},
			map[obs.Event]int64{obs.EvLeaseGrant: 1}},
		{"lease: shares a running lease", acqLease, wantEnd, false,
			[]round{{clock.Shared(liveEnd), false, acqWon, liveEnd, 0, 0}},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: uncertainty window still shares", acqLease, wantEnd, false,
			[]round{{clock.Shared(edgeEnd), false, acqWon, edgeEnd, 0, 0}},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: write-locked", acqLease, wantEnd, false,
			[]round{{clock.WLocked(foreignW), false, acqConflict, 0, 0, 0}}, nil},
		{"lease: expired lease taken over", acqLease, wantEnd, false,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.Shared(deadEnd), true, acqWon, wantEnd, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1, obs.EvLeaseGrant: 1}},
		{"lease: takeover lost to a reader, shares its lease", acqLease, wantEnd, false,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.Shared(liveEnd), false, acqWon, liveEnd, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: takeover lost to a writer", acqLease, wantEnd, false,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.WLocked(foreignW), false, acqConflict, 0, 0, 0},
			}, nil},
		{"lease: takeover lost, word expired again, restarts from free", acqLease, wantEnd, false,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.Shared(deadEnd + 1), false, acqAgain, 0, clock.Init, 0},
				{clock.Init, true, acqWon, wantEnd, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseGrant: 1}},
		{"lock: free word", acqLock, 0, false,
			[]round{{clock.Init, true, acqWon, 0, 0, 0}}, nil},
		{"lock: waits out a running lease", acqLock, 0, false,
			[]round{{clock.Shared(liveEnd), false, acqConflict, 0, 0, 0}}, nil},
		{"lock: write-locked", acqLock, 0, false,
			[]round{{clock.WLocked(foreignW), false, acqConflict, 0, 0, 0}}, nil},
		{"lock: expired lease taken over", acqLock, 0, false,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.Shared(deadEnd), true, acqWon, 0, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1}},
		// An escalated arm waits for a held word where any other gives up.
		{"waits, lock: held, then released", acqLock, 0, true,
			[]round{
				{clock.WLocked(foreignW), false, acqWait, 0, 0, 0},
				{clock.Init, true, acqWon, 0, 0, 0},
			}, nil},
		{"waits, lock: a foreign lease unexpired, then expired", acqLock, 0, true,
			[]round{
				{clock.Shared(liveEnd), false, acqWait, 0, 0, 0},
				{clock.Shared(liveEnd), false, acqAgain, 0, clock.Shared(liveEnd), liveEnd + delta + 1},
				{clock.Shared(liveEnd), true, acqWon, 0, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1}},
		{"waits, lease: write-locked, then released", acqLease, wantEnd, true,
			[]round{
				{clock.WLocked(foreignW), false, acqWait, 0, 0, 0},
				{clock.Init, true, acqWon, wantEnd, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseGrant: 1}},
		{"waits, lock: a takeover lost to racers restarts, then waits", acqLock, 0, true,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd), 0},
				{clock.Shared(deadEnd + 1), false, acqAgain, 0, clock.Init, 0},
				{clock.WLocked(foreignW), false, acqWait, 0, 0, 0},
			}, nil},
	}
	for _, c := range cases {
		sh := obs.NewShard()
		var a acquirer
		a.arm(c.mode, me, c.leaseEnd)
		a.waits = c.waits
		wantNew := locked
		if c.mode == acqLease {
			wantNew = clock.Shared(c.leaseEnd)
		}
		if a.old != clock.Init || a.want != wantNew {
			t.Errorf("%s: armed (%#x → %#x), want (%#x → %#x)", c.name, a.old, a.want, clock.Init, wantNew)
		}
		for i, r := range c.rounds {
			at := uint64(now)
			if r.at != 0 {
				at = r.at
			}
			v, end := a.step(sh, r.cur, r.swapped, at, delta)
			if v != r.verdict || end != r.end {
				t.Errorf("%s: round %d = (%d, %d), want (%d, %d)", c.name, i, v, end, r.verdict, r.end)
			}
			if v == acqAgain && (a.old != r.old || a.want != wantNew) {
				t.Errorf("%s: round %d re-armed (%#x → %#x), want (%#x → %#x)", c.name, i, a.old, a.want, r.old, wantNew)
			}
		}
		for _, ev := range []obs.Event{obs.EvLeaseGrant, obs.EvLeaseShare, obs.EvLeaseExpire} {
			if got := sh.Count(ev); got != c.events[ev] {
				t.Errorf("%s: event %v counted %d, want %d", c.name, ev, got, c.events[ev])
			}
		}
	}
}

// TestAcquirerWaitsForTheOwner drives Executor.acquire's wait for a lock held
// on node 1 by node 2: a live owner's release lets the waiting arm take the
// record; an owner whose machine is down gives ErrNodeDown — its locks are
// recovery's to free — and a non-waiting arm gives the held word up at once.
func TestAcquirerWaitsForTheOwner(t *testing.T) {
	for _, tc := range []struct {
		name        string
		waits, dead bool
		verdict     acqVerdict
		err         error
	}{
		{"released by its live owner", true, false, acqWon, nil},
		{"owner's machine down", true, true, acqConflict, ErrNodeDown},
		{"an arm that does not wait", false, false, acqConflict, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, stop := newRig(t, 3, 1, 6, nil)
			defer stop()
			host := rt.C.Node(1).Unordered(tblAccounts)
			off, _ := host.LookupLocal(1)
			host.Arena().StoreWord(kvs.StateOffset(off), clock.WLocked(2))
			if tc.dead {
				rt.C.Crash(2)
			}
			released := make(chan struct{})
			go func() {
				defer close(released)
				if tc.waits && !tc.dead {
					time.Sleep(time.Millisecond)
					host.Arena().StoreWord(kvs.StateOffset(off), clock.Init)
				}
			}()
			e := rt.Executor(0, 0)
			h := e.handle(tblAccounts, 1)
			if found, err := e.resolve(&h); !found || err != nil {
				t.Fatalf("resolve: %v %v", found, err)
			}
			var a acquirer
			a.arm(acqLock, 0, 0)
			a.waits = tc.waits
			v, _, err := e.acquire(&a, &h, false)
			<-released
			if v != tc.verdict || err != tc.err {
				t.Fatalf("acquire = (%d, %v), want (%d, %v)", v, err, tc.verdict, tc.err)
			}
			if s := host.Arena().LoadWord(kvs.StateOffset(off)); v == acqWon && s != clock.WLocked(0) {
				t.Fatalf("state word %#x after the wait, want the waiter's lock", s)
			}
		})
	}
}

// TestZombieWaitsForNoLock: a worker whose own machine is down waits for no
// lock, not even one a live machine holds: the release it would wait for may
// be parked until its own machine's repair. Node 0 is crashed, and its
// worker's wait behind node 2's lock on a row of node 1 ends in ErrNodeDown.
func TestZombieWaitsForNoLock(t *testing.T) {
	rt, stop := newRig(t, 3, 1, 6, nil)
	defer stop()
	e := rt.Executor(0, 0)
	h := e.handle(tblAccounts, 1)
	if found, err := e.resolve(&h); !found || err != nil {
		t.Fatalf("resolve: %v %v", found, err)
	}
	rt.C.Crash(0)
	if moved, err := e.waitOut(&h, clock.WLocked(2)); err != ErrNodeDown {
		t.Fatalf("zombie waitOut = moved=%v err=%v, want ErrNodeDown", moved, err)
	}
}

// TestImageCheckVerdicts: one case per verdict of the entry-image check, for
// hash and ordered handles.
func TestImageCheckVerdicts(t *testing.T) {
	const (
		key  = 42
		vw   = 2
		live = 5 // odd incarnation
		dead = 6
	)
	img := func(k uint64, inc uint32, state uint64) []uint64 {
		return []uint64{k, kvs.PackIncVer(inc, 9), state, 111, 222}
	}
	hash := recHandle{key: key, lossy: lossyOf(live)}
	ordered := recHandle{key: key, ordered: true}
	cached := recHandle{key: key, ordered: true, cached: true}
	cases := []struct {
		name     string
		h        recHandle
		words    []uint64
		wantDead bool
		spec     bool
		want     imgVerdict
	}{
		{"hash ok", hash, img(key, live, clock.Init), false, false, imgOK},
		{"hash ok under a lease word", hash, img(key, live, clock.Shared(77)), false, false, imgOK},
		{"hash other key in the slot", hash, img(key+1, live, clock.Init), false, false, imgStale},
		{"hash deleted", hash, img(key, dead, clock.Init), false, false, imgStale},
		{"hash reinserted: incarnation moved on", hash, img(key, live+2, clock.Init), false, false, imgStale},
		{"hash spec read of a write-locked entry", hash, img(key, live, clock.WLocked(1)), false, true, imgBusy},
		{"hash locked read of own lock", hash, img(key, live, clock.WLocked(1)), false, false, imgOK},
		{"ordered ok", ordered, img(key, live, clock.Init), false, false, imgOK},
		{"ordered recycled slot", ordered, img(key+1, live, clock.Init), false, false, imgStale},
		{"ordered dead row", ordered, img(key, dead, clock.Init), false, false, imgNotFound},
		{"ordered spec: locked dead row is mid-flip, not missing", ordered, img(key, dead, clock.WLocked(1)), false, true, imgBusy},
		{"ordered insert into the dead slot", ordered, img(key, dead, clock.WLocked(1)), true, false, imgOK},
		{"ordered insert finds the key live", ordered, img(key, live, clock.WLocked(1)), true, false, imgExists},
		{"cached ok", cached, img(key, live, clock.Init), false, true, imgOK},
		{"cached recycled slot", cached, img(key+1, live, clock.Init), false, true, imgStale},
		{"cached dead row: where the key was, not where it is", cached, img(key, dead, clock.Init), false, true, imgStale},
		{"cached freed slot keeps its remover's lock: stale, not mid-flip", cached, img(key, dead, clock.WLocked(1)), false, true, imgStale},
		{"cached write-locked live row", cached, img(key, live, clock.WLocked(1)), false, true, imgBusy},
	}
	for _, c := range cases {
		m := recImage{buf: []uint64{7, 7}}
		got := c.h.check(c.words, &m, vw, c.wantDead, c.spec)
		if got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
		switch {
		case got != imgOK:
			if m.buf[0] != 7 || m.version != 0 {
				t.Errorf("%s: a rejected image leaked into the record: %+v", c.name, m)
			}
		case c.wantDead:
			if m.buf[0] != 7 || m.inc != dead || m.version != 9 {
				t.Errorf("%s: insert must keep its value and take the slot's incver: %+v", c.name, m)
			}
		default:
			if m.buf[0] != 111 || m.buf[1] != 222 || m.inc != live || m.version != 9 {
				t.Errorf("%s: image not taken: %+v", c.name, m)
			}
		}
	}
}
