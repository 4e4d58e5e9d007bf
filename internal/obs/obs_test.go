package obs

import (
	"sync"
	"testing"
)

func TestBucketMapping(t *testing.T) {
	// Exact buckets below 16.
	for v := int64(0); v < 16; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, v)
		}
	}
	// bucketLower is the left edge of its own bucket, and buckets are
	// monotonically ordered.
	prev := -1
	for b := 0; b < histBuckets; b++ {
		lo := bucketLower(b)
		if got := bucketOf(lo); got != b {
			t.Fatalf("bucketOf(bucketLower(%d)=%d) = %d", b, lo, got)
		}
		if int(lo) <= prev && b > 0 && b < histBuckets {
			// lower bounds strictly increase
			t.Fatalf("bucketLower(%d)=%d not increasing", b, lo)
		}
		prev = int(lo)
	}
	// A value just below the next bucket's lower bound stays in its bucket.
	for b := 16; b < histBuckets-1; b++ {
		hi := bucketLower(b+1) - 1
		if got := bucketOf(hi); got != b {
			t.Fatalf("bucketOf(%d) = %d, want %d", hi, got, b)
		}
	}
	if bucketOf(-5) != 0 {
		t.Fatalf("negative durations must clamp to bucket 0")
	}
}

func TestCounterAndEventNames(t *testing.T) {
	s := NewShard()
	s.Inc(EvRDMARead)
	s.Add(EvRDMARead, 4)
	if s.Count(EvRDMARead) != 5 {
		t.Fatalf("counter = %d, want 5", s.Count(EvRDMARead))
	}
	s.reset()
	if s.Count(EvRDMARead) != 0 {
		t.Fatalf("counter after reset = %d", s.Count(EvRDMARead))
	}
	// Every name table gives each value a name of its own: events, the gauge,
	// phases, stages, and the trace ring's outcomes, abort causes and kinds.
	for kind, names := range map[string][]string{
		"event":      eventNames[:],
		"gauge":      gaugeNames[:],
		"phase":      phaseNames[:],
		"stage":      stageNames[:],
		"outcome":    outcomeNames[:],
		"cause":      causeNames[:],
		"trace kind": traceKindNames[:],
	} {
		seen := map[string]bool{}
		for i, n := range names {
			if n == "" || seen[n] {
				t.Errorf("%s %d: name %q empty or repeated", kind, i, n)
			}
			seen[n] = true
		}
	}
	for _, ev := range eventNames {
		for _, g := range gaugeNames {
			if ev == g {
				t.Errorf("gauge %q shares an event's name", g)
			}
		}
	}
	if got := Outcome(9).String(); got != "Outcome(9)" {
		t.Errorf("out-of-table outcome prints %q", got)
	}
}

// The wave ledger books a wave to the stage it was polled in, sums across
// shards, subtracts with Delta and clears with Reset.
func TestWaveLedger(t *testing.T) {
	r := NewRegistry(2)
	r.Shard(0).Wave(StageLock, 2, 1, 14_900)
	before := r.Snapshot()
	r.Shard(0).Wave(StagePublish, 3, 0, 1_800)
	r.Shard(1).Wave(StagePublish, 1, 0, 1_400)
	r.Shard(1).Wave(StageRelease, 3, 0, 1_800)
	d := r.Snapshot().Delta(before)
	want := [NumStages]WaveStats{
		StagePublish: {Waves: 2, WRs: 4, Nanos: 3_200},
		StageRelease: {Waves: 1, WRs: 3, Nanos: 1_800},
	}
	if d.Stages != want {
		t.Fatalf("delta = %+v, want %+v", d.Stages, want)
	}
	if lock := r.Snapshot().Stages[StageLock]; lock != (WaveStats{Waves: 1, WRs: 2, CASes: 1, Nanos: 14_900}) {
		t.Fatalf("lock stage = %+v", lock)
	}
	r.Reset()
	if got := r.Snapshot().Stages; got != [NumStages]WaveStats{} {
		t.Fatalf("after Reset: %+v", got)
	}
}

func TestNilShardIsNoop(t *testing.T) {
	var s *Shard
	s.Wave(StageLock, 1, 1, 1)
	s.Inc(EvTxCommit)
	s.Add(EvRDMARead, 3)
	s.Observe(PhaseTotal, 100)
	s.Trace(TraceEvent{})
	if s.TraceEnabled() {
		t.Fatal("nil shard reports tracing enabled")
	}
	if s.Count(EvTxCommit) != 0 {
		t.Fatal("nil shard count not zero")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry(2)
	r.Shard(0).Inc(EvTxCommit)
	r.Shard(1).Add(EvTxCommit, 2)
	r.Shard(0).Observe(PhaseTotal, 1000)

	prev := r.Snapshot()
	if prev.Counter(EvTxCommit) != 3 {
		t.Fatalf("snapshot commits = %d, want 3", prev.Counter(EvTxCommit))
	}
	if prev.Phases[PhaseTotal].Count != 1 {
		t.Fatalf("snapshot total count = %d, want 1", prev.Phases[PhaseTotal].Count)
	}

	r.Shard(1).Inc(EvTxCommit)
	r.Shard(1).Inc(EvFallback)
	r.Shard(0).Observe(PhaseTotal, 2000)
	r.Shard(0).Observe(PhaseTotal, 3000)

	d := r.Snapshot().Delta(prev)
	if d.Counter(EvTxCommit) != 1 {
		t.Fatalf("delta commits = %d, want 1", d.Counter(EvTxCommit))
	}
	if d.Counter(EvFallback) != 1 {
		t.Fatalf("delta fallbacks = %d, want 1", d.Counter(EvFallback))
	}
	if d.Counter(EvRORetry) != 0 {
		t.Fatalf("delta untouched counter = %d, want 0", d.Counter(EvRORetry))
	}
	ph := d.Phases[PhaseTotal]
	if ph.Count != 2 {
		t.Fatalf("delta phase count = %d, want 2", ph.Count)
	}
	if ph.Sum != 5000 {
		t.Fatalf("delta phase sum = %d, want 5000", ph.Sum)
	}

	r.Reset()
	z := r.Snapshot()
	if z.Counter(EvTxCommit) != 0 || z.Phases[PhaseTotal].Count != 0 {
		t.Fatalf("registry not zero after Reset: %+v", z.Counters)
	}
}

func TestPercentiles(t *testing.T) {
	r := NewRegistry(1)
	s := r.Shard(0)
	// 900 fast observations at 1000ns, 100 slow at 1_000_000ns.
	for i := 0; i < 900; i++ {
		s.Observe(PhaseHTM, 1000)
	}
	for i := 0; i < 100; i++ {
		s.Observe(PhaseHTM, 1_000_000)
	}
	h := r.Snapshot().Phases[PhaseHTM]
	if h.Count != 1000 {
		t.Fatalf("count = %d", h.Count)
	}
	p50 := h.Percentile(50)
	if p50 < 1000 || p50 > 1250 {
		t.Fatalf("p50 = %d, want ~1000 (<=25%% over)", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 1_000_000 || p99 > 1_250_000 {
		t.Fatalf("p99 = %d, want ~1e6 (<=25%% over)", p99)
	}
	if h.Max != 1_000_000 {
		t.Fatalf("max = %d", h.Max)
	}
	mean := h.Mean()
	if mean < 100_000 || mean > 102_000 {
		t.Fatalf("mean = %d, want ~100900", mean)
	}
	// Percentile never exceeds the observed max.
	if h.Percentile(100) > h.Max {
		t.Fatalf("p100 %d > max %d", h.Percentile(100), h.Max)
	}
	var empty HistSnapshot
	if empty.Percentile(99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram percentile/mean not zero")
	}
}

// TestConcurrentHammer drives counters, histograms, snapshots, resets and
// tracing from many goroutines at once; run with -race.
func TestConcurrentHammer(t *testing.T) {
	const (
		shards     = 4
		goroutines = 8
		iters      = 2000
	)
	r := NewRegistry(shards)
	r.EnableTrace(16)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.Shard(g % shards)
			for i := 0; i < iters; i++ {
				s.Inc(Event(i % NumEvents))
				s.Observe(Phase(i%NumPhases), int64(i))
				if s.TraceEnabled() {
					s.Trace(TraceEvent{TxID: uint64(i), Node: int32(g)})
				}
				if i%512 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	// Concurrent snapshot/drain/reset churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = r.DrainTrace()
		}
	}()
	wg.Wait()

	sn := r.Snapshot()
	var total int64
	for ev := 0; ev < NumEvents; ev++ {
		total += sn.Counter(Event(ev))
	}
	if total != goroutines*iters {
		t.Fatalf("total events = %d, want %d", total, goroutines*iters)
	}
	var obsv int64
	for p := 0; p < NumPhases; p++ {
		obsv += sn.Phases[p].Count
	}
	if obsv != goroutines*iters {
		t.Fatalf("total observations = %d, want %d", obsv, goroutines*iters)
	}
	r.DisableTrace()
	if len(r.DrainTrace()) != 0 {
		t.Fatal("drain after disable returned events")
	}
}

// TestHotPathAllocationFree proves the acceptance criterion: counter
// increments and histogram observations allocate nothing, with tracing off
// AND with tracing on (the TraceEnabled check itself is free; assembling
// a TraceEvent is the caller's choice).
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry(1)
	s := r.Shard(0)
	if avg := testing.AllocsPerRun(1000, func() {
		s.Inc(EvRDMACAS)
		s.Add(EvRDMARead, 2)
		s.Observe(PhaseTotal, 4096)
	}); avg != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if s.TraceEnabled() {
			t.Fatal("tracing unexpectedly on")
		}
	}); avg != 0 {
		t.Fatalf("trace-disabled check allocates %.1f allocs/op, want 0", avg)
	}
	// Snapshot is off the hot path, but Registry.Total should also be cheap.
	if avg := testing.AllocsPerRun(100, func() {
		_ = r.Total(EvRDMACAS)
	}); avg != 0 {
		t.Fatalf("Total allocates %.1f allocs/op, want 0", avg)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewRegistry(2)
	s := r.Shard(0)
	if s.TraceEnabled() {
		t.Fatal("tracing should default off")
	}
	s.Trace(TraceEvent{TxID: 99}) // dropped: no ring
	r.EnableTrace(4)
	if !s.TraceEnabled() {
		t.Fatal("tracing not enabled")
	}
	for i := 1; i <= 6; i++ {
		s.Trace(TraceEvent{TxID: uint64(i)})
	}
	got := r.DrainTrace()
	if len(got) != 4 {
		t.Fatalf("drained %d events, want 4 (ring capacity)", len(got))
	}
	// Oldest-first, newest retained: txids 3,4,5,6.
	for i, ev := range got {
		if want := uint64(i + 3); ev.TxID != want {
			t.Fatalf("event %d txid = %d, want %d", i, ev.TxID, want)
		}
		if ev.Seq == 0 {
			t.Fatalf("event %d missing sequence number", i)
		}
	}
	if len(r.DrainTrace()) != 0 {
		t.Fatal("second drain not empty")
	}
}
