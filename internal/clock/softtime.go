package clock

import (
	"sync"
	"time"

	"drtm/internal/htm"
	"drtm/internal/memory"
)

// epoch anchors all timestamps; package init keeps them small and positive.
var epoch = time.Now()

// NowMicros returns the current "true" (PTP-disciplined) time in
// microseconds since the process epoch.
func NowMicros() uint64 { return uint64(time.Since(epoch) / time.Microsecond) }

// Strategy selects how transactions obtain softtime (Figure 11).
type Strategy int

const (
	// StrategyReuseConfirm (Figure 11(c), DrTM's choice): the softtime read
	// in the Start phase (outside the HTM region) is reused for all local
	// checks; only the final lease confirmation performs a transactional
	// read, narrowing the conflict window with the timer thread.
	StrategyReuseConfirm Strategy = iota
	// StrategyPerOp (Figure 11(b)): every local read/write fetches softtime
	// transactionally, maximizing false conflicts with the timer thread.
	StrategyPerOp
	// StrategyLongInterval (Figure 11(a)): like PerOp but the deployment
	// compensates with a long update interval, trading false aborts for a
	// large DELTA and lease-confirmation failures.
	StrategyLongInterval
)

func (s Strategy) String() string {
	switch s {
	case StrategyReuseConfirm:
		return "reuse+confirm"
	case StrategyPerOp:
		return "per-op"
	case StrategyLongInterval:
		return "long-interval"
	default:
		return "unknown"
	}
}

// SoftClock publishes an approximately synchronized timestamp into an
// HTM-tracked arena word, as the paper's timer thread does (Section 6.1).
type SoftClock struct {
	arena    *memory.Arena
	skew     time.Duration // this node's PTP residual error
	interval time.Duration

	mu      sync.Mutex
	stopCh  chan struct{}
	done    chan struct{} // closed when the last timer goroutine started has exited
	stopped bool
	ticks   int64
}

// softOff is the word offset of the softtime value inside the clock arena.
const softOff memory.Offset = 0

// NewSoftClock creates a clock whose published time deviates from true time
// by skew, updated every interval. Call Start to launch the timer thread.
func NewSoftClock(arenaID int, interval, skew time.Duration) *SoftClock {
	c := &SoftClock{
		arena:    memory.NewArena(arenaID, memory.WordsPerLine),
		skew:     skew,
		interval: interval,
	}
	c.publish()
	return c
}

// Arena exposes the clock's backing arena (the transaction layer reads
// softtime transactionally through it).
func (c *SoftClock) Arena() *memory.Arena { return c.arena }

func (c *SoftClock) publish() {
	now := int64(NowMicros()) + int64(c.skew/time.Microsecond)
	if now < 0 {
		now = 0
	}
	c.arena.StoreWord(softOff, uint64(now))
}

// Start launches the timer goroutine.
func (c *SoftClock) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopCh != nil || c.stopped {
		return
	}
	c.stopCh, c.done = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.publish()
				c.mu.Lock()
				c.ticks++
				c.mu.Unlock()
			}
		}
	}(c.stopCh, c.done)
}

// Restart relaunches the timer goroutine after a Stop — a crashed node's
// clock coming back up on revival. Unlike Start, it clears the stopped
// latch; a clock that was never stopped just keeps running.
func (c *SoftClock) Restart() {
	c.mu.Lock()
	c.stopped = false
	c.mu.Unlock()
	c.Start()
}

// Stop terminates the timer goroutine and returns once it has exited, so no
// tick under way publishes after it; it waits outside mu, which a tick takes.
func (c *SoftClock) Stop() {
	c.mu.Lock()
	done := c.done
	if c.stopCh != nil {
		close(c.stopCh)
		c.stopCh = nil
	}
	c.stopped = true
	c.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Ticks reports how many timer updates have fired (for tests).
func (c *SoftClock) Ticks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Tick forces one immediate publish (deterministic tests).
func (c *SoftClock) Tick() { c.publish() }

// floor bounds softtime staleness: the timer goroutine may lag arbitrarily
// on an oversubscribed simulation host, but the paper's DELTA assumes the
// published time is at most one update interval stale. Every read therefore
// clamps the word to at least (true time + skew - interval) — semantically
// "the worst value a healthy timer could have published" — so the
// clock-uncertainty bound DELTA = interval + 2*skew genuinely holds, which
// the lease safety argument (Section 4.4) depends on.
func (c *SoftClock) floor() uint64 {
	ideal := int64(NowMicros()) + int64(c.skew/time.Microsecond) - int64(c.interval/time.Microsecond)
	if ideal < 0 {
		return 0
	}
	return uint64(ideal)
}

// Read returns softtime via a plain (non-transactional) load. Used in the
// Start phase, outside any HTM region.
func (c *SoftClock) Read() uint64 {
	v := c.arena.LoadWord(softOff)
	if f := c.floor(); f > v {
		return f
	}
	return v
}

// ReadTx returns softtime via a transactional load, adding the softtime
// word's line to tx's read set. Used inside HTM regions; this is the read
// that the timer thread's updates can falsely abort.
func (c *SoftClock) ReadTx(tx *htm.Txn) uint64 {
	v := tx.Read(c.arena, softOff)
	if f := c.floor(); f > v {
		return f
	}
	return v
}

// Delta returns a conservative clock-uncertainty bound (microseconds) for a
// deployment with the given per-node skew bound and update interval: a
// reader may see a value as stale as one full interval plus twice the skew.
func Delta(interval, skewBound time.Duration) uint64 {
	return uint64((interval + 2*skewBound) / time.Microsecond)
}
