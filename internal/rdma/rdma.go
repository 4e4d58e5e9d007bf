// Package rdma simulates an InfiniBand RDMA fabric between the logical
// nodes of a DrTM cluster.
//
// Each node owns an Endpoint with registered memory regions (word arenas).
// One-sided operations (READ, WRITE, CAS, FAA) act directly on the target
// arena without involving the target node's workers — and because arenas
// carry per-cache-line versions, every one-sided mutation is visible to the
// target's HTM engine as a conflicting non-transactional access. This is the
// simulated analogue of the cache coherence between a real RDMA NIC's DMA
// and the CPU's transactional tracking, which is the property DrTM's hybrid
// protocol is built on.
//
// Two-sided SEND/RECV verbs are modeled as a registered request handler per
// endpoint invoked synchronously with both message directions charged to the
// caller's virtual clock (user-space polling verbs: ~3 us one way), or, for a
// one-way Send, one doorbell with the request left in flight. An IPoIB
// transport with socket-stack costs (~55 us one way) is provided for the
// Calvin baseline, which predates RDMA-native design.
//
// Atomicity levels (Section 4.2/6.3): the fabric models IBV_ATOMIC_HCA by
// default — RDMA CAS is atomic against other RDMA CAS but costs 14.5 us;
// local CPU CAS is a different, cheap path. With IBV_ATOMIC_GLOB the two
// are mutually atomic and implementations may use the cheap local CAS for
// local records (the paper's suggested NIC upgrade); the transaction layer
// consults this level when locking local records in fallback handlers and
// read-only transactions.
package rdma

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/vtime"
)

// AtomicityLevel mirrors the ibv atomic capability levels.
type AtomicityLevel int

const (
	// AtomicHCA: RDMA atomics are atomic only against other RDMA atomics
	// (the paper's ConnectX-3). Lock words must then be manipulated by RDMA
	// CAS even for local records on protocol paths that race with remote
	// lockers.
	AtomicHCA AtomicityLevel = iota
	// AtomicGLOB: RDMA atomics are atomic against CPU atomics (e.g. QLogic
	// QLE); local records can be locked with cheap local CAS.
	AtomicGLOB
)

func (l AtomicityLevel) String() string {
	if l == AtomicGLOB {
		return "IBV_ATOMIC_GLOB"
	}
	return "IBV_ATOMIC_HCA"
}

// Handler serves two-sided verbs requests on an endpoint.
type Handler func(from int, req any) any

// LogSink receives one-sided log-append work requests (OpLogAppend)
// targeting a registered log region. RemoteAppend runs at WR completion
// time on the appender's goroutine — the one-sided discipline: the target
// node's workers are not involved. Implementations perform the ring-buffer
// append and any admission check (the cluster's sink fences appends whose
// carried view epoch is stale, returning ErrFenced). A non-nil error means
// the append had no effect.
type LogSink interface {
	RemoteAppend(from int, rec []uint64) error
}

// regionTable is an endpoint's immutable snapshot of registered regions.
// Registration replaces the whole table copy-on-write, so the verb path —
// which may run concurrently on detector/recovery goroutines while a late
// table is being defined — reads it with one atomic load and no lock.
type regionTable struct {
	arenas  map[int]*memory.Arena
	durable map[int]bool // regions that stay readable after a crash (NVRAM)
	sinks   map[int]LogSink
}

// Endpoint is a node's attachment to the fabric.
type Endpoint struct {
	id      int
	regions atomic.Pointer[regionTable]
	regMu   sync.Mutex // serializes copy-on-write registration
	handler atomic.Pointer[Handler]
	down    atomic.Bool
}

func (ep *Endpoint) register(regionID int, a *memory.Arena, durable bool) {
	ep.regMu.Lock()
	defer ep.regMu.Unlock()
	next := ep.cloneRegions()
	next.arenas[regionID] = a
	if durable {
		next.durable[regionID] = true
	}
	ep.regions.Store(next)
}

func (ep *Endpoint) registerSink(regionID int, s LogSink) {
	ep.regMu.Lock()
	defer ep.regMu.Unlock()
	next := ep.cloneRegions()
	next.sinks[regionID] = s
	ep.regions.Store(next)
}

// cloneRegions copies the current table for copy-on-write registration;
// callers hold regMu.
func (ep *Endpoint) cloneRegions() *regionTable {
	old := ep.regions.Load()
	next := &regionTable{
		arenas:  make(map[int]*memory.Arena, len(old.arenas)+1),
		durable: make(map[int]bool, len(old.durable)+1),
		sinks:   make(map[int]LogSink, len(old.sinks)+1),
	}
	for k, v := range old.arenas {
		next.arenas[k] = v
	}
	for k, v := range old.durable {
		next.durable[k] = v
	}
	for k, v := range old.sinks {
		next.sinks[k] = v
	}
	return next
}

// Fabric connects the endpoints of a cluster.
type Fabric struct {
	model     vtime.Model
	atomicity AtomicityLevel
	eps       []*Endpoint
	plan      atomic.Pointer[FaultPlan]
}

// NewFabric creates a fabric with n endpoints (node IDs 0..n-1).
func NewFabric(n int, model vtime.Model, atomicity AtomicityLevel) *Fabric {
	f := &Fabric{model: model, atomicity: atomicity}
	for i := 0; i < n; i++ {
		ep := &Endpoint{id: i}
		ep.regions.Store(&regionTable{
			arenas:  make(map[int]*memory.Arena),
			durable: make(map[int]bool),
			sinks:   make(map[int]LogSink),
		})
		f.eps = append(f.eps, ep)
	}
	return f
}

// SetFaultPlan installs (or, with nil, removes) the fabric's fault plan.
func (f *Fabric) SetFaultPlan(p *FaultPlan) { f.plan.Store(p) }

// SetNodeDown marks a node's endpoint unreachable (fail-stop crash) or
// reachable again. While down, every verb against the node fails with
// ErrNodeUnreachable — except READs of regions registered durable, which
// model battery-backed NVRAM that survivors drain during recovery (the
// paper's flush-on-failure assumption, Section 4.6).
func (f *Fabric) SetNodeDown(node int, down bool) { f.eps[node].down.Store(down) }

// NodeDown reports whether the node's endpoint is marked unreachable.
func (f *Fabric) NodeDown(node int) bool { return f.eps[node].down.Load() }

// Model returns the fabric's cost model.
func (f *Fabric) Model() *vtime.Model { return &f.model }

// Atomicity returns the configured atomicity level.
func (f *Fabric) Atomicity() AtomicityLevel { return f.atomicity }

// Nodes returns the endpoint count.
func (f *Fabric) Nodes() int { return len(f.eps) }

// Endpoint returns node's endpoint.
func (f *Fabric) Endpoint(node int) *Endpoint {
	return f.eps[node]
}

// Register exposes an arena as a remotely accessible region of a node.
// Safe to call while traffic is live (tables may be defined after the
// cluster — and its detector goroutines — have started).
func (f *Fabric) Register(node, regionID int, a *memory.Arena) {
	f.eps[node].register(regionID, a, false)
}

// RegisterDurable registers an arena as an NVRAM-backed region: like
// Register, but READs of the region keep succeeding while the node is down.
func (f *Fabric) RegisterDurable(node, regionID int, a *memory.Arena) {
	f.eps[node].register(regionID, a, true)
}

// RegisterLogSink exposes a log sink as the target of one-sided log-append
// WRs (OpLogAppend) against (node, regionID). Safe to call while traffic is
// live. The sink region typically also registers its backing arena with
// RegisterDurable under the same ID, so survivors can replay the log with
// plain READs after the host crashes.
func (f *Fabric) RegisterLogSink(node, regionID int, s LogSink) {
	f.eps[node].registerSink(regionID, s)
}

// Serve installs the two-sided verbs handler for a node.
func (f *Fabric) Serve(node int, h Handler) {
	f.eps[node].handler.Store(&h)
}

func (f *Fabric) region(node, regionID int) *memory.Arena {
	a, ok := f.eps[node].regions.Load().arenas[regionID]
	if !ok {
		panic(fmt.Sprintf("rdma: node %d has no region %d", node, regionID))
	}
	return a
}

func (f *Fabric) regionErr(node, regionID int) (*memory.Arena, error) {
	a, ok := f.eps[node].regions.Load().arenas[regionID]
	if !ok {
		return nil, fmt.Errorf("%w: node %d region %d", ErrNoRegion, node, regionID)
	}
	return a, nil
}

func (f *Fabric) sinkErr(node, regionID int) (LogSink, error) {
	s, ok := f.eps[node].regions.Load().sinks[regionID]
	if !ok {
		return nil, fmt.Errorf("%w: node %d log region %d", ErrNoRegion, node, regionID)
	}
	return s, nil
}

// QP is a queue pair: a worker-private handle for issuing verbs. Costs are
// charged to the clock bound at creation (nil clock charges nothing, for
// unit tests). Every verb is counted once, as its event in Obs: the cluster
// wires each worker's QP to the worker's observability shard, a caller that
// counts on a standalone QP attaches obs.NewShard(), and a nil Obs (the
// failure detector's control-plane QP) counts nothing.
type QP struct {
	fabric *Fabric
	local  int
	clock  *vtime.Clock
	Obs    *obs.Shard

	// inflight is the modeled time at which the last work this QP posted and
	// did not wait for (PollDetached, Send) completes, 0 once a wait passed
	// it; since is the clock reading when that work was left in flight. Both
	// are atomics because some tests run two executors of one worker on two
	// goroutines; the bookkeeping is then approximate, never a data race.
	inflight, since atomic.Int64
}

// NewQP creates a queue pair for a worker on node local.
func (f *Fabric) NewQP(local int, clock *vtime.Clock) *QP {
	return &QP{fabric: f, local: local, clock: clock}
}

// Local returns the node this QP belongs to.
func (q *QP) Local() int { return q.local }

// charge charges d of work the worker waits for. The connection completes
// work in post order, so the wait ends no earlier than the work left in flight
// before it: lag adds what is still outstanding.
func (q *QP) charge(d int64) {
	if q.clock != nil {
		q.clock.ChargeNS(d + q.lag(d))
	}
}

// spend charges d of the worker's own CPU time — a doorbell, a local CAS —
// which waits for nothing in flight.
func (q *QP) spend(d int64) {
	if q.clock != nil {
		q.clock.ChargeNS(d)
	}
}

// lag returns how far the work left in flight outlasts a wait of d starting
// now, counts it as EvInflightWaitNS, and forgets the in-flight work: once the
// wait is charged the clock is past it. A clock that went back (a harness
// resetting it between phases) has nothing in flight.
func (q *QP) lag(d int64) int64 {
	if q.inflight.Load() == 0 {
		return 0
	}
	end, now := q.inflight.Swap(0), int64(q.clock.Now())
	lag := end - now - d
	if lag <= 0 || now < q.since.Load() {
		return 0
	}
	q.Obs.Add(obs.EvInflightWaitNS, lag)
	return lag
}

// Idle reports whether everything this QP left in flight has completed at the
// clock's reading: nothing is, or its end is past. A clock that went back has
// nothing in flight, as for lag.
func (q *QP) Idle() bool {
	end := q.inflight.Load()
	if end == 0 || q.clock == nil {
		return true
	}
	now := int64(q.clock.Now())
	return end <= now || now < q.since.Load()
}

// Settle waits out what this QP left in flight: a waited charge of nothing,
// which pays the lag alone.
func (q *QP) Settle() { q.charge(0) }

// detach leaves work of latency d in flight from now on: it completes after
// everything posted before it, and the next waited charge pays what is left.
func (q *QP) detach(d int64) {
	q.Obs.Inc(obs.EvDetached)
	if q.clock == nil {
		return
	}
	now, end := int64(q.clock.Now()), q.inflight.Load()
	if now < q.since.Load() {
		end = 0
	}
	q.inflight.Store(max(end, now+d))
	q.since.Store(now)
}

// netYield marks a network round trip: yield so other workers' execution
// genuinely overlaps it. Without this, a single-core simulation host would
// let each transaction run to completion within one scheduler slice,
// hiding the lock-hold/lease contention windows the protocol is designed
// around. Local CPU operations (LocalCAS) must NOT yield — they are
// nanoseconds on real hardware and inflating them distorts read-only
// transactions with large local read sets.
func netYield() { runtime.Gosched() }

// faultCheck evaluates the fail-before-apply fault model for one verb (or
// one work request of a batch) targeting (node, region) WITHOUT charging
// the clock: it returns any injected extra latency and the failure, and the
// caller decides how the cost lands — the sync wrappers charge it directly,
// the async engine folds it into the batch's overlap charge. A verb that
// fails never reached the target, so it has no side effect (the request,
// not the ack, is lost). read selects the NVRAM carve-out: READs of durable
// regions survive the target being down.
func (q *QP) faultCheck(node, region int, read bool) (extraNS int64, err error) {
	f := q.fabric
	ep := f.eps[node]
	if ep.down.Load() && !(read && ep.regions.Load().durable[region]) {
		return 0, ErrNodeUnreachable
	}
	// Fail-stop covers the source too: a crashed machine cannot issue
	// verbs. In the simulator a crashed node's worker goroutines keep
	// running; failing their verbs here keeps those zombies from mutating
	// live nodes' memory behind recovery's back.
	if src := f.eps[q.local]; src.down.Load() {
		return 0, ErrNodeUnreachable
	}
	if p := f.plan.Load(); p != nil {
		extra, fail := p.draw(q.local, node)
		if fail {
			return extra, ErrTimeout
		}
		return extra, nil
	}
	return 0, nil
}

// fault is the sync-path fault check: a failing verb charges the full
// modeled completion timeout to the issuing worker's clock, as a real QP
// would spin on the completion queue until its timeout fires.
func (q *QP) fault(node, region int, read bool) error {
	extra, err := q.faultCheck(node, region, read)
	if err != nil {
		q.Obs.Inc(obs.EvVerbFault)
		q.charge(extra + q.fabric.model.TimeoutNS)
		netYield()
		return err
	}
	if extra > 0 {
		q.charge(extra)
	}
	return nil
}

// probeRegion is the pseudo-region Probe targets; it is never durable, so a
// probe of a down node always reports ErrNodeUnreachable.
const probeRegion = -1

// TryRead performs a one-sided RDMA READ of len(dst) words from (node,
// region, off) into dst. Per-cache-line consistency only, as on real
// hardware. Fails with ErrNodeUnreachable / ErrTimeout / ErrNoRegion; dst is
// untouched on error.
//
// The sync Try* verbs are one-WR wrappers over the async engine's
// completion path: the WR completes inline and its individual latency is
// charged directly (no doorbell overlap — a lone verb is a full round trip,
// exactly the pre-engine cost).
func (q *QP) TryRead(node, region int, off memory.Offset, dst []uint64) error {
	wr := WR{Op: OpRead, Node: node, Region: region, Off: off, Dst: dst}
	q.complete(&wr)
	q.charge(wr.CostNS)
	netYield()
	return wr.Err
}

// TryWrite performs a one-sided RDMA WRITE of src to (node, region, off).
func (q *QP) TryWrite(node, region int, off memory.Offset, src []uint64) error {
	wr := WR{Op: OpWrite, Node: node, Region: region, Off: off, Src: src}
	q.complete(&wr)
	q.charge(wr.CostNS)
	netYield()
	return wr.Err
}

// TryCAS performs a one-sided atomic compare-and-swap on a single word,
// returning the prior value and whether the swap happened.
func (q *QP) TryCAS(node, region int, off memory.Offset, old, new uint64) (uint64, bool, error) {
	wr := WR{Op: OpCAS, Node: node, Region: region, Off: off, Old: old, New: new}
	q.complete(&wr)
	q.charge(wr.CostNS)
	netYield()
	return wr.Prev, wr.Swapped, wr.Err
}

// TryFAA performs a one-sided atomic fetch-and-add, returning the prior
// value.
func (q *QP) TryFAA(node, region int, off memory.Offset, delta uint64) (uint64, error) {
	wr := WR{Op: OpFAA, Node: node, Region: region, Off: off, Delta: delta}
	q.complete(&wr)
	q.charge(wr.CostNS)
	netYield()
	return wr.Prev, wr.Err
}

// TryLogAppend performs a one-sided log append of rec into the sink
// registered at (node, region): the sync one-WR form of PostLogAppend.
// Fails with ErrNodeUnreachable / ErrTimeout / ErrNoRegion like any verb,
// or with ErrFenced when the sink's view-epoch check rejects the record.
func (q *QP) TryLogAppend(node, region int, rec []uint64) error {
	wr := WR{Op: OpLogAppend, Node: node, Region: region, Src: rec}
	q.complete(&wr)
	q.charge(wr.CostNS)
	netYield()
	return wr.Err
}

// Probe issues a minimal zero-byte READ against node to test reachability:
// nil when the node answered, ErrNodeUnreachable when it is down, ErrTimeout
// when the probe itself was lost (inconclusive — retry). The failure
// detector uses it to confirm a suspected crash before electing a
// recovery coordinator.
func (q *QP) Probe(node int) error {
	if err := q.fault(node, probeRegion, false); err != nil {
		return err
	}
	q.Obs.Inc(obs.EvRDMARead)
	q.charge(int64(q.fabric.model.RDMARead(0)))
	netYield()
	return nil
}

// Read is TryRead for fault-free harnesses (unit tests, closed-form
// benchmarks): any verb failure panics. Production protocol paths use the
// Try variants and handle the errors.
func (q *QP) Read(node, region int, off memory.Offset, dst []uint64) {
	if err := q.TryRead(node, region, off, dst); err != nil {
		panic(fmt.Sprintf("rdma: READ node %d region %d: %v", node, region, err))
	}
}

// Write is TryWrite with failures escalated to panics; see Read.
func (q *QP) Write(node, region int, off memory.Offset, src []uint64) {
	if err := q.TryWrite(node, region, off, src); err != nil {
		panic(fmt.Sprintf("rdma: WRITE node %d region %d: %v", node, region, err))
	}
}

// CAS is TryCAS with failures escalated to panics; see Read.
func (q *QP) CAS(node, region int, off memory.Offset, old, new uint64) (uint64, bool) {
	prev, ok, err := q.TryCAS(node, region, off, old, new)
	if err != nil {
		panic(fmt.Sprintf("rdma: CAS node %d region %d: %v", node, region, err))
	}
	return prev, ok
}

// FAA is TryFAA with failures escalated to panics; see Read.
func (q *QP) FAA(node, region int, off memory.Offset, delta uint64) uint64 {
	prev, err := q.TryFAA(node, region, off, delta)
	if err != nil {
		panic(fmt.Sprintf("rdma: FAA node %d region %d: %v", node, region, err))
	}
	return prev
}

// LocalCAS performs a CPU compare-and-swap on a local region. Only legal
// when the race partners also use CPU atomics, or under AtomicGLOB; the
// transaction layer enforces that discipline.
func (q *QP) LocalCAS(region int, off memory.Offset, old, new uint64) (uint64, bool) {
	a := q.fabric.region(q.local, region)
	prev, ok := a.CAS(off, old, new)
	q.spend(q.fabric.model.LocalCASNS)
	return prev, ok
}

// Call sends a two-sided verbs request to node and waits for the reply,
// charging one message cost each way. reqBytes/respBytes size the messages
// for the cost model. A missing handler or an unreachable/faulted node is
// an error (a crashed node is a recoverable condition, not process death).
func (q *QP) Call(node int, req any, reqBytes, respBytes int) (any, error) {
	if err := q.fault(node, probeRegion, false); err != nil {
		return nil, err
	}
	h := q.fabric.eps[node].handler.Load()
	if h == nil {
		return nil, fmt.Errorf("%w: node %d", ErrNoHandler, node)
	}
	q.Obs.Inc(obs.EvVerbsMsg)
	out, back := int64(q.fabric.model.VerbsMsg(reqBytes)), int64(q.fabric.model.VerbsMsg(respBytes))
	q.charge(out + q.lag(out+back)) // the reply, not the request, is what must come after the work in flight
	netYield()
	resp := (*h)(q.local, req)
	q.charge(back)
	netYield()
	return resp, nil
}

// Send is Call's one-way form: the request goes out, the handler runs and its
// reply is dropped, for a caller that nothing waits on the answer of. The
// worker pays one doorbell and the message's flight is left in flight on the
// connection (detach), for the next waited charge to pay what is left of it. A
// fault, checked before the handler runs, is charged and reported as Call's.
func (q *QP) Send(node int, req any, reqBytes int) error {
	if err := q.fault(node, probeRegion, false); err != nil {
		return err
	}
	h := q.fabric.eps[node].handler.Load()
	if h == nil {
		return fmt.Errorf("%w: node %d", ErrNoHandler, node)
	}
	q.Obs.Inc(obs.EvVerbsMsg)
	q.spend(q.fabric.model.DoorbellNS)
	q.detach(int64(q.fabric.model.VerbsMsg(reqBytes)))
	netYield()
	(*h)(q.local, req)
	return nil
}

// CallIPoIB is Call over the emulated IPoIB socket transport (used by the
// Calvin baseline, which does not speak RDMA).
func (q *QP) CallIPoIB(node int, req any, reqBytes, respBytes int) (any, error) {
	if err := q.fault(node, probeRegion, false); err != nil {
		return nil, err
	}
	h := q.fabric.eps[node].handler.Load()
	if h == nil {
		return nil, fmt.Errorf("%w: node %d", ErrNoHandler, node)
	}
	q.Obs.Inc(obs.EvVerbsMsg)
	q.charge(int64(q.fabric.model.IPoIBMsg(reqBytes)))
	netYield()
	resp := (*h)(q.local, req)
	q.charge(int64(q.fabric.model.IPoIBMsg(respBytes)))
	netYield()
	return resp, nil
}
