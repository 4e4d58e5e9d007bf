package tx

import (
	"testing"

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
		heldEnd  = 15_000 // the caller's own lease (upgrade from lease)
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
	}
	cases := []struct {
		name     string
		mode     acqMode
		leaseEnd uint64
		rounds   []round
		events   map[obs.Event]int64
	}{
		{"lease: free word", acqLease, wantEnd,
			[]round{{clock.Init, true, acqWon, wantEnd, 0}},
			map[obs.Event]int64{obs.EvLeaseGrant: 1}},
		{"lease: shares a running lease", acqLease, wantEnd,
			[]round{{clock.Shared(liveEnd), false, acqShared, liveEnd, 0}},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: uncertainty window still shares", acqLease, wantEnd,
			[]round{{clock.Shared(edgeEnd), false, acqShared, edgeEnd, 0}},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: write-locked", acqLease, wantEnd,
			[]round{{clock.WLocked(foreignW), false, acqConflict, 0, 0}}, nil},
		{"lease: expired lease taken over", acqLease, wantEnd,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.Shared(deadEnd), true, acqWon, wantEnd, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1, obs.EvLeaseGrant: 1}},
		{"lease: takeover lost to a reader, shares its lease", acqLease, wantEnd,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.Shared(liveEnd), false, acqShared, liveEnd, 0},
			},
			map[obs.Event]int64{obs.EvLeaseShare: 1}},
		{"lease: takeover lost to a writer", acqLease, wantEnd,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.WLocked(foreignW), false, acqConflict, 0, 0},
			}, nil},
		{"lease: takeover lost, word expired again, restarts from free", acqLease, wantEnd,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.Shared(deadEnd + 1), false, acqAgain, 0, clock.Init},
				{clock.Init, true, acqWon, wantEnd, 0},
			},
			map[obs.Event]int64{obs.EvLeaseGrant: 1}},
		{"lock: free word", acqLock, 0,
			[]round{{clock.Init, true, acqWon, 0, 0}}, nil},
		{"lock: waits out a running lease", acqLock, 0,
			[]round{{clock.Shared(liveEnd), false, acqConflict, 0, 0}}, nil},
		{"lock: write-locked", acqLock, 0,
			[]round{{clock.WLocked(foreignW), false, acqConflict, 0, 0}}, nil},
		{"lock: expired lease taken over", acqLock, 0,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.Shared(deadEnd), true, acqWon, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1}},
		{"upgrade from lease: own lease swapped for the lock", acqUpgradeLease, heldEnd,
			[]round{{clock.Shared(heldEnd), true, acqWon, 0, 0}},
			map[obs.Event]int64{obs.EvLockUpgrade: 1}},
		{"upgrade from lease: a later foreign lease is waited out", acqUpgradeLease, heldEnd,
			[]round{{clock.Shared(heldEnd + 500), false, acqConflict, 0, 0}}, nil},
		{"upgrade from lease: own lease expired and replaced, foreign expired lease taken over", acqUpgradeLease, deadEnd - 100,
			[]round{
				{clock.Shared(deadEnd), false, acqAgain, 0, clock.Shared(deadEnd)},
				{clock.Shared(deadEnd), true, acqWon, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1, obs.EvLockUpgrade: 1}},
		{"upgrade from lease: word cleared by a local writer", acqUpgradeLease, deadEnd,
			[]round{
				{clock.Init, false, acqAgain, 0, clock.Init},
				{clock.Init, true, acqWon, 0, 0},
			},
			map[obs.Event]int64{obs.EvLeaseExpire: 1, obs.EvLockUpgrade: 1}},
		{"upgrade from spec: free word", acqUpgradeSpec, 0,
			[]round{{clock.Init, true, acqWon, 0, 0}},
			map[obs.Event]int64{obs.EvLockUpgrade: 1}},
		{"upgrade from spec: running lease", acqUpgradeSpec, 0,
			[]round{{clock.Shared(liveEnd), false, acqConflict, 0, 0}}, nil},
	}
	for _, c := range cases {
		sh := obs.NewShard()
		var a acquirer
		a.arm(c.mode, me, c.leaseEnd)
		wantOld := clock.Init
		if c.mode == acqUpgradeLease {
			wantOld = clock.Shared(c.leaseEnd)
		}
		wantNew := locked
		if c.mode == acqLease {
			wantNew = clock.Shared(c.leaseEnd)
		}
		if a.old != wantOld || a.want != wantNew {
			t.Errorf("%s: armed (%#x → %#x), want (%#x → %#x)", c.name, a.old, a.want, wantOld, wantNew)
		}
		for i, r := range c.rounds {
			v, end := a.step(sh, r.cur, r.swapped, now, delta)
			if v != r.verdict || end != r.end {
				t.Errorf("%s: round %d = (%d, %d), want (%d, %d)", c.name, i, v, end, r.verdict, r.end)
			}
			if v == acqAgain && (a.old != r.old || a.want != wantNew) {
				t.Errorf("%s: round %d re-armed (%#x → %#x), want (%#x → %#x)", c.name, i, a.old, a.want, r.old, wantNew)
			}
		}
		for _, ev := range []obs.Event{obs.EvLeaseGrant, obs.EvLeaseShare, obs.EvLeaseExpire, obs.EvLockUpgrade} {
			if got := sh.Count(ev); got != c.events[ev] {
				t.Errorf("%s: event %v counted %d, want %d", c.name, ev, got, c.events[ev])
			}
		}
	}
}

// TestAcquirerTakeoverBudget: an acquisition that keeps losing takeovers to
// racers gives up after casRetries of them.
func TestAcquirerTakeoverBudget(t *testing.T) {
	sh := obs.NewShard()
	var a acquirer
	a.arm(acqLock, 1, 0)
	rounds := 0
	for end := uint64(1); ; end++ {
		rounds++
		v, _ := a.step(sh, clock.Shared(end), false, 10_000, 300) // always another expired lease
		if v == acqConflict {
			break
		}
		if v != acqAgain || rounds > 4*casRetries {
			t.Fatalf("round %d: verdict %d", rounds, v)
		}
	}
	if want := 2 * casRetries; rounds != want {
		t.Fatalf("gave up after %d rounds, want %d (%d lost takeovers)", rounds, want, casRetries)
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
			if m.buf[0] != 111 || m.buf[1] != 222 || m.inc != live || m.version != 9 || m.prevTail != 0 {
				t.Errorf("%s: image not taken: %+v", c.name, m)
			}
		}
	}

	// A full image (chained table) ends in the tail pair: its stamp is captured.
	const depth = 2
	full := make([]uint64, kvs.EntryImageWords(vw, depth))
	copy(full, img(key, live, clock.Init))
	full[len(full)-kvs.TailWords+kvs.TailStampWord] = 999
	var m recImage
	if v := hash.check(full, &m, vw, false, false); v != imgOK || m.prevTail != 999 {
		t.Errorf("full image: verdict %d, prevTail %d, want ok / 999", v, m.prevTail)
	}
}
