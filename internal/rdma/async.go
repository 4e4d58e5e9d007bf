package rdma

import (
	"slices"

	"drtm/internal/memory"
	"drtm/internal/obs"
)

// This file is the asynchronous half of the fabric: a post/poll verb engine
// modeled after real RC queue pairs. Callers build work requests (WRs),
// post them to a SendQueue, and poll the completion queue; WRs posted
// between polls are outstanding *concurrently*, so a polled batch charges
// the overlap-aware cost of vtime.Model.BatchOverlapNS — the maximum
// completion latency of the batch plus a per-WR doorbell/CQ cost — instead
// of a full round trip per verb. A bounded window models the NIC's
// outstanding-request limit: batches larger than the window complete in
// window-sized waves, and a window of 1 degenerates to the old strictly
// serial behavior.
//
// Fault injection is per-WR at completion time: each WR draws its own fault
// when its wave completes, a failing WR contributes the completion timeout
// to the wave's overlap charge and has NO side effect (fail-before-apply,
// exactly like the sync verbs), and the WRs to other destinations complete
// normally — partial completion, as on real hardware. The WRs posted BEHIND
// the failed one to the same destination do not: a reliable connection that
// completes a work request in error enters the error state and flushes the
// rest of its send queue, so they complete with ErrFlushed and no effect
// (see Poll). That is what lets a caller chain dependent WRITEs — value, then
// unlock — in one doorbell: none can land past a predecessor that did not.
//
// The synchronous Try* verbs are thin wrappers: one WR, completed inline,
// charged its own latency with the doorbell cost folded into the base verb
// constants. Every pre-engine call site keeps compiling and keeps its cost.
//
// Work nothing waits on (PollDetached, QP.Send) completes at once but is
// charged only its doorbells; its latency stays in flight on the QP, and as
// the connection completes work in post order, the next waited charge pays
// whatever of it is left (QP.charge).

// OpCode identifies a work request's one-sided verb.
type OpCode uint8

const (
	OpRead OpCode = iota
	OpWrite
	OpCAS
	OpFAA
	// OpLogAppend is a one-sided WRITE steered into a registered LogSink
	// (FaRM-style commit-backup append): the payload lands in the target's
	// ring-buffer log region without involving its workers, and the sink may
	// reject it (ErrFenced) without any side effect.
	OpLogAppend
)

func (o OpCode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCAS:
		return "CAS"
	case OpFAA:
		return "FAA"
	case OpLogAppend:
		return "LOGAPPEND"
	default:
		return "OP?"
	}
}

// WR is one work request. The caller fills the request fields, posts it,
// and reads the completion fields after the wave containing it is polled.
// A WR belongs to one SendQueue at a time and must not be reposted while
// outstanding.
type WR struct {
	Op           OpCode
	Node, Region int
	Off          memory.Offset
	Dst          []uint64 // READ destination (len selects the size)
	Src          []uint64 // WRITE payload
	Old, New     uint64   // CAS arguments
	Delta        uint64   // FAA argument
	Token        uint64   // caller cookie, untouched by the engine

	// Completion fields, valid once Poll has returned the WR.
	Err     error  // nil, ErrNodeUnreachable, ErrTimeout, ErrNoRegion, ErrFenced or ErrFlushed
	Prev    uint64 // prior word value (CAS, FAA)
	Swapped bool   // CAS succeeded
	CostNS  int64  // this WR's own modeled completion latency

	// pooled marks WRs allocated by the queue's Post* helpers: they are
	// recycled when the next batch starts posting, so a completed WR (and
	// Poll's returned slice) stays readable only until the first Post that
	// follows its Poll. WRs built and posted by the caller are never pooled.
	pooled bool
}

// complete executes one work request at completion time: per-WR fault
// draw, side effect on success, the verb's events in q.Obs, and the WR's
// individual modeled latency in CostNS (the caller charges it, directly for
// sync verbs or via the batch overlap rule for polled waves).
func (q *QP) complete(wr *WR) {
	model := &q.fabric.model
	extra, err := q.faultCheck(wr.Node, wr.Region, wr.Op == OpRead)
	if err != nil {
		q.Obs.Inc(obs.EvVerbFault)
		wr.Err = err
		wr.CostNS = extra + model.TimeoutNS
		return
	}
	if wr.Op == OpLogAppend {
		// Log appends dispatch through the sink registry, not the arena
		// table: the sink owns the ring-buffer head and the admission check.
		s, err := q.fabric.sinkErr(wr.Node, wr.Region)
		if err != nil {
			wr.Err = err
			wr.CostNS = extra
			return
		}
		n := int64(len(wr.Src) * 8)
		// The WRITE crossed the wire whether or not the sink admits it, so
		// the verb's cost and events are charged unconditionally.
		wr.CostNS = extra + int64(model.LogAppend(int(n)))
		q.Obs.Inc(obs.EvLogAppend)
		q.Obs.Add(obs.EvBackupBytes, n)
		wr.Err = s.RemoteAppend(q.local, wr.Src)
		return
	}
	a, err := q.fabric.regionErr(wr.Node, wr.Region)
	if err != nil {
		wr.Err = err
		wr.CostNS = extra
		return
	}
	wr.Err = nil
	wr.CostNS = extra
	switch wr.Op {
	case OpRead:
		a.Read(wr.Dst, wr.Off)
		n := int64(len(wr.Dst) * 8)
		q.Obs.Inc(obs.EvRDMARead)
		q.Obs.Add(obs.EvRDMAReadBytes, n)
		wr.CostNS += int64(model.RDMARead(int(n)))
	case OpWrite:
		a.Write(wr.Off, wr.Src)
		q.Obs.Inc(obs.EvRDMAWrite)
		wr.CostNS += int64(model.RDMAWrite(len(wr.Src) * 8))
	case OpCAS:
		wr.Prev, wr.Swapped = a.CAS(wr.Off, wr.Old, wr.New)
		q.Obs.Inc(obs.EvRDMACAS)
		wr.CostNS += model.RDMACASNS
	case OpFAA:
		wr.Prev = a.FAA(wr.Off, wr.Delta)
		q.Obs.Inc(obs.EvRDMAFAA)
		wr.CostNS += model.RDMACASNS
	}
}

// DefaultWindow is the default bound on outstanding WRs per SendQueue,
// sized like a small RC QP send queue.
const DefaultWindow = 16

// SendQueue is a worker-private post/poll queue on top of a QP. Post
// appends work requests without touching the fabric; Poll flushes them in
// window-sized waves (ringing one logical doorbell per destination chain),
// applies each WR's effect, and charges the overlap-aware batch cost.
// Like the QP itself it is single-goroutine.
type SendQueue struct {
	qp      *QP
	window  int
	pending []*WR

	// Stage is the transaction stage the poster is in: Poll books every wave
	// to it in the worker's wave ledger (obs.Shard.Wave).
	Stage obs.Stage

	// WR pool: done holds the last batch's queue-allocated WRs until the
	// next batch starts posting, then they move to free for reuse. spare
	// double-buffers the pending slice so Poll's returned slice survives
	// one full batch cycle.
	done  []*WR
	free  []*WR
	spare []*WR
	costs []int64

	// errNodes lists the destinations whose connection is in the error state
	// for the rest of the Poll in progress (scratch, emptied by every Poll).
	errNodes []int
}

// NewSendQueue creates a send queue with the given outstanding-WR window;
// window <= 0 selects DefaultWindow, window 1 serializes every WR.
func (q *QP) NewSendQueue(window int) *SendQueue {
	if window <= 0 {
		window = DefaultWindow
	}
	return &SendQueue{qp: q, window: window}
}

// QP returns the underlying queue pair.
func (sq *SendQueue) QP() *QP { return sq.qp }

// Window returns the outstanding-WR bound.
func (sq *SendQueue) Window() int { return sq.window }

// Pending returns the number of posted, not-yet-polled WRs.
func (sq *SendQueue) Pending() int { return len(sq.pending) }

// Post enqueues a prepared work request and returns it.
func (sq *SendQueue) Post(wr *WR) *WR {
	if len(sq.pending) == 0 && len(sq.done) > 0 {
		// A new batch begins: the previous batch's completions are now
		// consumed (see WR.pooled), so its queue-allocated WRs recycle.
		sq.free = append(sq.free, sq.done...)
		sq.done = sq.done[:0]
	}
	sq.pending = append(sq.pending, wr)
	return wr
}

// getWR pops a pooled work request (or allocates the pool's next one).
func (sq *SendQueue) getWR() *WR {
	if len(sq.pending) == 0 && len(sq.done) > 0 {
		sq.free = append(sq.free, sq.done...)
		sq.done = sq.done[:0]
	}
	if n := len(sq.free); n > 0 {
		wr := sq.free[n-1]
		sq.free = sq.free[:n-1]
		*wr = WR{pooled: true}
		return wr
	}
	return &WR{pooled: true}
}

// PostRead posts a one-sided READ of len(dst) words into dst.
func (sq *SendQueue) PostRead(node, region int, off memory.Offset, dst []uint64) *WR {
	wr := sq.getWR()
	wr.Op, wr.Node, wr.Region, wr.Off, wr.Dst = OpRead, node, region, off, dst
	return sq.Post(wr)
}

// PostWrite posts a one-sided WRITE of src.
func (sq *SendQueue) PostWrite(node, region int, off memory.Offset, src []uint64) *WR {
	wr := sq.getWR()
	wr.Op, wr.Node, wr.Region, wr.Off, wr.Src = OpWrite, node, region, off, src
	return sq.Post(wr)
}

// PostCAS posts a one-sided atomic compare-and-swap of a single word.
func (sq *SendQueue) PostCAS(node, region int, off memory.Offset, old, new uint64) *WR {
	wr := sq.getWR()
	wr.Op, wr.Node, wr.Region, wr.Off, wr.Old, wr.New = OpCAS, node, region, off, old, new
	return sq.Post(wr)
}

// PostFAA posts a one-sided atomic fetch-and-add.
func (sq *SendQueue) PostFAA(node, region int, off memory.Offset, delta uint64) *WR {
	wr := sq.getWR()
	wr.Op, wr.Node, wr.Region, wr.Off, wr.Delta = OpFAA, node, region, off, delta
	return sq.Post(wr)
}

// PostLogAppend posts a one-sided log append of rec into the sink
// registered at (node, region). The ring-buffer offset is owned by the
// sink, so no Off is taken.
func (sq *SendQueue) PostLogAppend(node, region int, rec []uint64) *WR {
	wr := sq.getWR()
	wr.Op, wr.Node, wr.Region, wr.Src = OpLogAppend, node, region, rec
	return sq.Post(wr)
}

// Poll flushes every pending WR and waits for all completions, returning
// the WRs in post order with their completion fields filled. WRs complete
// in waves of at most Window outstanding requests; each wave charges
// max-of-completions plus the per-WR doorbell cost (Model.BatchOverlapNS)
// and yields once, so overlapped verbs cost one scheduling point instead of
// one per round trip.
//
// Ordering is the reliable connection's. Side effects apply in post order,
// and once a WR to node N completes in error — any error — the connection to
// N is in the error state until the Poll returns: every WR posted after it to
// N, in this wave or a later one, completes with ErrFlushed — no side effect,
// no fault draw, no verb counted, no latency beyond its doorbell — while WRs
// to other nodes go on completing. So of a same-destination chain exactly a
// prefix lands (value WRITE before unlock WRITE: never the unlock without the
// value), under any window, and the caller re-drives the rest in post order.
// The next Poll starts from a working connection.
func (sq *SendQueue) Poll() []*WR { return sq.poll(false) }

// PollDetached is Poll for work nothing waits on the completion of: every WR
// completes now, with Poll's effects, verdicts and flushes, but of the last
// wave the worker pays only the doorbells and leaves its slowest completion in
// flight on the connection (QP.detach), for the next waited charge to pay what
// is left of it. The earlier waves are awaited, as the window is the NIC's
// outstanding-request limit, and so is a last wave with a failed WR: its
// timeout is what the caller's re-drive starts from.
func (sq *SendQueue) PollDetached() []*WR { return sq.poll(true) }

func (sq *SendQueue) poll(detach bool) []*WR {
	wrs := sq.pending
	sq.pending = sq.spare[:0]
	sq.spare = wrs
	costs := sq.costs[:0]
	errNodes := sq.errNodes[:0]
	defer func() { sq.costs, sq.errNodes = costs[:0], errNodes[:0] }()
	for start := 0; start < len(wrs); start += sq.window {
		end := start + sq.window
		if end > len(wrs) {
			end = len(wrs)
		}
		wave := wrs[start:end]
		costs = costs[:0]
		atomics, failed := 0, false
		for _, wr := range wave {
			if slices.Contains(errNodes, wr.Node) {
				wr.Err, wr.Prev, wr.Swapped, wr.CostNS = ErrFlushed, 0, false, 0
			} else {
				if sq.qp.complete(wr); wr.Err != nil {
					errNodes = append(errNodes, wr.Node)
				}
				if wr.Op == OpCAS || wr.Op == OpFAA {
					atomics++
				}
			}
			failed = failed || wr.Err != nil
			costs = append(costs, wr.CostNS)
		}
		model := &sq.qp.fabric.model
		ns := model.BatchOverlapNS(costs)
		sq.qp.Obs.Inc(obs.EvRDMABatch)
		sq.qp.Obs.Observe(obs.PhaseBatchOps, int64(len(wave)))
		if detach && end == len(wrs) && !failed {
			doorbells := int64(len(wave)) * model.DoorbellNS
			sq.qp.Obs.Wave(sq.Stage, len(wave), atomics, doorbells)
			sq.qp.Obs.Inflight(sq.Stage, ns-doorbells)
			sq.qp.spend(doorbells)
			sq.qp.detach(ns - doorbells)
		} else {
			sq.qp.Obs.Wave(sq.Stage, len(wave), atomics, ns)
			sq.qp.charge(ns)
		}
		netYield()
	}
	for _, wr := range wrs {
		if wr.pooled {
			sq.done = append(sq.done, wr)
		}
	}
	return wrs
}
