package clock

import (
	"testing"
	"testing/quick"
	"time"

	"drtm/internal/htm"
)

func TestStateWordRoundTrip(t *testing.T) {
	for _, owner := range []uint8{0, 1, 5, 255} {
		s := WLocked(owner)
		if !IsWriteLocked(s) {
			t.Fatalf("WLocked(%d) not write-locked", owner)
		}
		if Owner(s) != owner {
			t.Fatalf("Owner = %d, want %d", Owner(s), owner)
		}
	}
	if IsWriteLocked(Init) {
		t.Fatal("Init is write-locked")
	}
}

func TestSharedLeaseRoundTrip(t *testing.T) {
	for _, end := range []uint64{0, 1, 400, 1 << 40} {
		s := Shared(end)
		if IsWriteLocked(s) {
			t.Fatalf("Shared(%d) is write-locked", end)
		}
		if LeaseEnd(s) != end {
			t.Fatalf("LeaseEnd = %d, want %d", LeaseEnd(s), end)
		}
	}
}

func TestExpiredValidWindows(t *testing.T) {
	const end, delta = 1000, 50
	cases := []struct {
		now     uint64
		expired bool
		valid   bool
	}{
		{900, false, true},   // clearly inside
		{949, false, true},   // just inside valid window
		{950, false, false},  // uncertainty region begins
		{1000, false, false}, // at end: uncertain
		{1050, false, false}, // still within delta of end
		{1051, true, false},  // certainly expired
	}
	for _, c := range cases {
		if got := Expired(end, c.now, delta); got != c.expired {
			t.Errorf("Expired(now=%d) = %v, want %v", c.now, got, c.expired)
		}
		if got := Valid(end, c.now, delta); got != c.valid {
			t.Errorf("Valid(now=%d) = %v, want %v", c.now, got, c.valid)
		}
	}
}

// TestQuickValidExpiredDisjoint: a lease is never simultaneously valid and
// expired, for any (end, now, delta).
func TestQuickValidExpiredDisjoint(t *testing.T) {
	f := func(end, now uint64, delta uint16) bool {
		end >>= 12 // keep within the 55-bit encodable range with headroom
		now >>= 12
		d := uint64(delta)
		return !(Valid(end, now, d) && Expired(end, now, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStateEncodingLossless: owner and lease encodings never clobber
// each other's bits.
func TestQuickStateEncodingLossless(t *testing.T) {
	f := func(owner uint8, end uint64) bool {
		end &= (1 << 55) - 1
		return Owner(WLocked(owner)) == owner && LeaseEnd(Shared(end)) == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftClockPublishes(t *testing.T) {
	c := NewSoftClock(0, time.Millisecond, 0)
	defer c.Stop()
	before := c.Read()
	time.Sleep(2 * time.Millisecond)
	c.Tick()
	if after := c.Read(); after <= before {
		t.Fatalf("softtime did not advance: %d -> %d", before, after)
	}
}

func TestSoftClockSkewApplied(t *testing.T) {
	ahead := NewSoftClock(0, time.Hour, 10*time.Millisecond)
	behind := NewSoftClock(1, time.Hour, -10*time.Millisecond)
	a, b := ahead.Read(), behind.Read()
	if a <= b {
		t.Fatalf("skewed clocks out of order: ahead=%d behind=%d", a, b)
	}
	if a-b < 10_000 { // at least 10 ms apart in us
		t.Fatalf("skew gap too small: %d us", a-b)
	}
}

func TestSoftClockTimerThread(t *testing.T) {
	c := NewSoftClock(0, 200*time.Microsecond, 0)
	c.Start()
	defer c.Stop()
	deadline := time.After(time.Second)
	for c.Ticks() < 3 {
		select {
		case <-deadline:
			t.Fatal("timer thread did not tick")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSoftClockStopIdempotent(t *testing.T) {
	c := NewSoftClock(0, time.Millisecond, 0)
	c.Start()
	c.Stop()
	c.Stop()
	c.Start() // after Stop, Start must not relaunch
	if c.stopCh != nil {
		t.Fatal("Start relaunched after Stop")
	}
}

// TestTimerUpdateAbortsTransactionalReader reproduces the Figure 11(b)
// hazard: an HTM region that reads softtime is aborted by a timer update.
func TestTimerUpdateAbortsTransactionalReader(t *testing.T) {
	c := NewSoftClock(0, time.Hour, 0)
	eng := htm.NewEngine(htm.Config{})
	err := eng.Run(func(tx *htm.Txn) error {
		_ = c.ReadTx(tx)
		c.Tick() // timer fires mid-transaction
		return nil
	})
	if ae, ok := htm.IsAbort(err); !ok || ae.Code != htm.AbortConflict {
		t.Fatalf("err = %v, want conflict abort from timer tick", err)
	}
}

// TestStartPhaseReadUnaffectedByTimer: the non-transactional read used by
// strategy (c) does not create HTM conflicts.
func TestStartPhaseReadUnaffectedByTimer(t *testing.T) {
	c := NewSoftClock(0, time.Hour, 0)
	eng := htm.NewEngine(htm.Config{})
	start := c.Read() // outside the region
	err := eng.Run(func(tx *htm.Txn) error {
		_ = start // reuse
		c.Tick()
		return nil
	})
	if err != nil {
		t.Fatalf("reuse strategy still aborted: %v", err)
	}
}

func TestDelta(t *testing.T) {
	d := Delta(10*time.Millisecond, 50*time.Microsecond)
	if d != 10_100 {
		t.Fatalf("Delta = %d us, want 10100", d)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyReuseConfirm.String() != "reuse+confirm" ||
		StrategyPerOp.String() != "per-op" ||
		StrategyLongInterval.String() != "long-interval" {
		t.Fatal("strategy strings wrong")
	}
}

// TestSoftClockStopWaitsOutTimer: once Stop returns, the timer goroutine
// publishes nothing more — neither the softtime word nor Ticks moves — even
// when a tick was under way as Stop was called; Restart runs it again.
func TestSoftClockStopWaitsOutTimer(t *testing.T) {
	c := NewSoftClock(0, 10*time.Microsecond, 0)
	for i := 0; i < 200; i++ {
		c.Restart()
		for ticks := c.Ticks(); c.Ticks() == ticks; {
			time.Sleep(5 * time.Microsecond)
		}
		c.Stop()
		word, ticks := c.arena.LoadWord(softOff), c.Ticks()
		time.Sleep(50 * time.Microsecond) // five intervals
		if w, n := c.arena.LoadWord(softOff), c.Ticks(); w != word || n != ticks {
			t.Fatalf("cycle %d: after Stop the softtime word went %d -> %d and Ticks %d -> %d", i, word, w, ticks, n)
		}
	}
}
