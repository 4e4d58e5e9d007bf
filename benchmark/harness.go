package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tx"
)

// outcome classifies one finished transaction.
type outcome uint8

const (
	committed outcome = iota
	// benign is an abort the workload asks for (TPC-C's 1 % new-order
	// rollbacks): not a failure, not a commit, no latency sample.
	benign
	failed
)

// client issues one worker's transactions: runOne draws the next one from the
// seeded mix, runs it to completion and reports its type id and outcome, and
// for a failed one the error it ended with.
type client interface {
	runOne() (typ int, out outcome, err error)
}

// deployment is one populated cluster with a closed-loop client per worker.
type deployment struct {
	c       *cluster.Cluster
	rt      *tx.Runtime
	clients []client // clients[i] drives c.Workers()[i]

	// userBytes is what set-up loaded, counted as rows × value bytes on the
	// primaries (replica copies are overhead, not user data).
	userBytes int64
	// maxTxns caps each client's transactions per run where a table or a log
	// has a fixed capacity the run must not exhaust; 0 means no cap.
	maxTxns int64
	// check is the quiesced correctness gate; it returns nil when the
	// database is consistent with what the clients committed.
	check func() error
	// failover, on replicated deployments, crashes a primary, promotes its
	// backup and re-checks through the replica.
	failover func() (failoverStats, error)
}

type failoverStats struct {
	promoteMS   float64
	redoTailLen float64
}

func (d *deployment) stop() { d.c.Stop() }

// segments is how many equal consecutive parts a run is cut into: the wall
// metrics are medians over the parts. A neighbour on the shared box slows
// this process for half a second to two seconds at a time (seen as dips in
// per-200 ms commit counts while sizing), which moves some parts but not
// their median.
const segments = 20

// span is one wall-clock interval of the traced run, kept in pre-allocated
// memory and written out after the run.
type span struct {
	name     string
	worker   int32
	parent   int32 // index of the enclosing span, -1 for a root
	attempts int32
	startNS  int64 // since the trace's origin
	endNS    int64
}

// clientStats is what one client goroutine records; nothing in it is shared
// until the run is over.
type clientStats struct {
	wall      [numTxnTypes]hist
	model     hist
	busyNS    [numTxnTypes]int64
	attempted int64
	committed int64
	failed    int64
	firstErr  string         // what the first failed transaction returned
	segWall   [segments]hist // wall latency of every type, by end time
	endNS     int64          // when the client stopped: dur, or earlier if maxTxns ended it
	spans     []span         // traced runs only; fixed capacity
}

// loop runs the closed loop for dur (or maxTxns transactions): the next
// transaction is issued when the previous one returns.
func (cs *clientStats) loop(cl client, wk *cluster.Worker, idx int, start time.Time, dur time.Duration, maxTxns int64) {
	segW := int64(dur) / segments
	for n := int64(0); maxTxns == 0 || n < maxTxns; n++ {
		t0 := int64(time.Since(start))
		if t0 >= int64(dur) {
			cs.endNS = int64(dur)
			break
		}
		v0 := wk.VClock.Now()
		var r0 int64
		if cs.spans != nil {
			r0 = wk.Obs.Count(obs.EvTxRetry) + wk.Obs.Count(obs.EvRORetry)
		}
		typ, out, err := cl.runOne()
		t1 := int64(time.Since(start))
		cs.endNS = t1
		cs.attempted++
		cs.busyNS[typ] += t1 - t0
		switch out {
		case committed:
			cs.committed++
			cs.wall[typ].record(t1 - t0)
			cs.model.record(int64(wk.VClock.Now() - v0))
			if seg := t1 / segW; seg < segments {
				cs.segWall[seg].record(t1 - t0)
			}
		case failed:
			if cs.failed == 0 {
				cs.firstErr = fmt.Sprintf("%s: %v", txnNames[typ], err)
			}
			cs.failed++
		}
		if cs.spans != nil && len(cs.spans) < cap(cs.spans) {
			r1 := wk.Obs.Count(obs.EvTxRetry) + wk.Obs.Count(obs.EvRORetry)
			cs.spans = append(cs.spans, span{
				name: txnNames[typ], worker: int32(idx), parent: 0, // the run's root span
				attempts: int32(1 + r1 - r0), startNS: t0, endNS: t1,
			})
		}
	}
}

// runResult is one closed-loop run, merged over the clients.
type runResult struct {
	wall      [numTxnTypes]hist
	model     hist
	busyNS    [numTxnTypes]int64
	attempted int64
	committed int64
	failed    int64
	firstErrs []string // each client's first failure, if it had one

	elapsed time.Duration // dur, or less where maxTxns ended the run
	// Medians over the run's segments.
	wallTxnPerS          float64
	wallP50NS, wallP99NS float64

	modelTxnPerS  float64 // committed ÷ longest worker virtual timeline
	modelNS       int64   // summed worker virtual time
	busyTotalNS   int64
	obs           obs.Snapshot // counter deltas over the run
	cacheHits     int64
	cacheMisses   int64
	cacheInvals   int64
	cpuNS         int64 // process CPU time (user + system) over the run
	mallocs       uint64
	allocBytes    uint64
	liveHeapBytes uint64
	spans         []span
}

// spansPerClient bounds the traced run's span memory (and the size of the
// trace file); transactions beyond it still count, they just leave no span.
const spansPerClient = 20000

// run drives every client of d for dur and returns the merged result. With
// traced set the engine's per-worker trace rings and the harness's spans are
// on; end-to-end numbers always come from a run with both off.
func run(d *deployment, dur time.Duration, traced bool) *runResult {
	workers := d.c.Workers()
	stats := make([]*clientStats, len(d.clients))
	for i := range stats {
		stats[i] = &clientStats{}
		if traced {
			stats[i].spans = make([]span, 0, spansPerClient)
		}
	}
	if traced {
		d.c.Obs.EnableTrace(traceRing)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap0 := d.c.Obs.Snapshot()
	h0, mi0, in0 := d.rt.CacheStats()
	v0 := make([]time.Duration, len(workers))
	for i, wk := range workers {
		v0[i] = wk.VClock.Now()
	}

	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for i := range d.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i].loop(d.clients[i], workers[i], i, start, dur, d.maxTxns)
		}(i)
	}
	wg.Wait()
	cpu1 := processCPU()

	runtime.ReadMemStats(&m1)
	r := &runResult{
		cpuNS:      cpu1 - cpu0,
		obs:        d.c.Obs.Snapshot().Delta(snap0),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	h1, mi1, in1 := d.rt.CacheStats()
	r.cacheHits, r.cacheMisses, r.cacheInvals = h1-h0, mi1-mi0, in1-in0

	var maxV time.Duration
	for i, wk := range workers {
		dv := wk.VClock.Now() - v0[i]
		r.modelNS += int64(dv)
		if dv > maxV {
			maxV = dv
		}
	}
	var segWall [segments]hist
	var endNS int64
	if traced {
		r.spans = append(r.spans, span{name: "run", worker: -1, parent: -1, endNS: int64(time.Since(start))})
	}
	for i, cs := range stats {
		for t := range cs.wall {
			r.wall[t].merge(&cs.wall[t])
			r.busyNS[t] += cs.busyNS[t]
			r.busyTotalNS += cs.busyNS[t]
		}
		r.model.merge(&cs.model)
		r.attempted += cs.attempted
		r.committed += cs.committed
		r.failed += cs.failed
		if cs.firstErr != "" {
			r.firstErrs = append(r.firstErrs, fmt.Sprintf("client %d: %s", i, cs.firstErr))
		}
		for seg := range cs.segWall {
			segWall[seg].merge(&cs.segWall[seg])
		}
		// A run that hit maxTxns ends when its first client does: past that
		// point fewer clients are running and the rate is not comparable.
		if i == 0 || cs.endNS < endNS {
			endNS = cs.endNS
		}
		r.spans = append(r.spans, cs.spans...)
	}
	r.modelTxnPerS = ratio(float64(r.committed), maxV.Seconds())
	r.elapsed = min(dur, time.Duration(endNS))
	// Only segments that lie wholly inside the run count.
	segW := dur / segments
	var rates, p50s, p99s []float64
	for seg := 0; seg < int(r.elapsed/segW); seg++ {
		h := &segWall[seg]
		rates = append(rates, float64(h.count)/segW.Seconds())
		p50s = append(p50s, h.percentile(50))
		p99s = append(p99s, h.percentile(99))
	}
	r.wallTxnPerS, _ = medianIQR(rates)
	r.wallP50NS, _ = medianIQR(p50s)
	r.wallP99NS, _ = medianIQR(p99s)

	// What the store, chains and logs hold once the run's garbage is gone.
	stats = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeapBytes = m1.HeapAlloc
	return r
}

// processCPU is the CPU time this process has used, user plus system, in
// nanoseconds. Unlike wall time it leaves out sleeps (tpcc_mix's lease waits)
// and the time a hypervisor gave the core to someone else.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// medianIQR returns the median of xs and (Q3-Q1)/median, with quartiles as
// Python's statistics.quantiles(xs, n=4) computes them (the contract's
// spread measure). Fewer than two samples have no spread.
func medianIQR(xs []float64) (median, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], 0
	}
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	median = quartile(2)
	if median == 0 {
		return 0, 0
	}
	return median, (quartile(3) - quartile(1)) / median
}
