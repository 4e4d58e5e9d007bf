package tx

import (
	"errors"

	"drtm/internal/clock"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Fault policy of the transaction layer (Section 4.6). Verbs can fail two
// ways: a transient ErrTimeout (an injected fabric fault; a real NIC would
// retransmit) or ErrNodeUnreachable (the target machine crashed).
//
//   - Acquisition-side verbs (lock CAS, lease CAS, lookup/prefetch READs)
//     retry timeouts a bounded number of times with jittered exponential
//     backoff charged to virtual time; an unreachable node — or a fault
//     that outlasts verbRetries — aborts the transaction with ErrNodeDown
//     after releasing every lock it holds. A polled work request that
//     failed, or was flushed behind one that did (rdma.ErrFlushed: never
//     attempted), is re-driven under the same policy.
//
//   - Release-side verbs (unlock, commit write-back, post-commit host ops)
//     run AFTER the transaction's serialization point, so they must never
//     fail: redrive retries timeouts without bound, and a step for an
//     unreachable node goes to defer_ — parked for recovery (or the node's
//     revival) without replication, run at once under it — so a committed
//     transaction's effects are never lost, the invariant the chaos
//     experiment checks. The write-backs and unlocks go out as one doorbell
//     chain of WRITEs (Tx.postWave), the host ops as one message per host
//     (Executor.applyHostOps).

// verbRetries bounds acquisition-side retries of transient verb faults.
const verbRetries = 6

// faultBackoff charges one jittered exponential backoff step to virtual
// time and records it, mirroring the sender-side retransmission delay of a
// reliable-connection QP.
func (e *Executor) faultBackoff(attempt int) {
	sh := e.w.Obs
	sh.Inc(obs.EvLockRetry)
	maxNS := int64(1) << (uint(attempt) + 11) // 2us, 4us, ... 64us
	ns := e.rng.Int63n(maxNS) + 1
	e.charge(ns)
	sh.Add(obs.EvBackoffNanos, ns)
}

// verbRetry runs an acquisition-side verb, retrying transient timeouts.
// The returned error is nil, ErrNodeUnreachable, or ErrTimeout (budget
// exhausted); callers map both failures to ErrNodeDown via nodeDown.
func (e *Executor) verbRetry(op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, rdma.ErrTimeout) || attempt >= verbRetries {
			return err
		}
		e.faultBackoff(attempt)
	}
}

// redrive runs a release-side verb, which must never fail: timeouts retry
// without bound, and it reports whether the target node is unreachable, whose
// step the caller hands to defer_ by its own rule (mustWrite, mustUnlock,
// shipHostOps).
func (e *Executor) redrive(verb func() error) (down bool) {
	for attempt := 0; ; attempt++ {
		err := verb()
		if err == nil || errors.Is(err, rdma.ErrNodeUnreachable) {
			return err != nil
		}
		e.faultBackoff(attempt)
	}
}

// mustWrite is the release-side WRITE. When the ISSUING node is the one that
// crashed (a dead machine cannot send), a write to an unreachable node is
// dropped instead of deferred: the transaction's commit record — the
// write-ahead record Recover redoes, or the redo record Failover replays — is
// the source of truth, and applying it here would race the repair's unlock and
// could clobber a survivor's freshly taken lock.
func (e *Executor) mustWrite(node, table int, off memory.Offset, words []uint64) {
	if !e.redrive(func() error { return e.w.QP.TryWrite(node, table, off, words) }) || e.zombie() {
		return
	}
	own := append([]uint64(nil), words...) // the caller reuses words (commit scratch, pooled record buffers)
	e.rt.defer_(node, func(rt *Runtime) { rt.arenaOf(node, table).Write(off, own) })
}

// mustUnlock is the re-drive of a clean release whose WRITE did not complete:
// an owner-guarded CAS (WLocked(self) -> Init) rather than the blind WRITE.
// The WRITE fails when a machine on the path is down — this one included —
// and from then on recovery may free the lock and a survivor re-lock the
// record: a late unlock from this (possibly zombie) transaction must not
// clobber the new owner, now or when defer_ applies it. A failed compare
// means the lock is already gone — done either way.
func (e *Executor) mustUnlock(node, table int, off memory.Offset) {
	locked := clock.WLocked(uint8(e.w.Node.ID))
	if e.redrive(func() error { _, _, err := e.w.QP.TryCAS(node, table, off, locked, clock.Init); return err }) {
		e.rt.defer_(node, func(rt *Runtime) { rt.arenaOf(node, table).CAS(off, locked, clock.Init) })
	}
}

// zombie reports whether this worker's own machine is currently marked
// crashed — its goroutine keeps running in the simulator, but under
// fail-stop semantics its volatile effects must not reach live memory.
func (e *Executor) zombie() bool {
	return e.rt.C.Fabric.NodeDown(e.w.Node.ID)
}

// defer_ takes a release-side step for node, which is unreachable. Under
// replication it runs at once, serialized with Failover: the backups' rings
// hold every committed value, so a write-back, unlock or removal lands in
// memory nothing serves once the partition is promoted, and a store op (the
// one step no ring carries) runs at the partition's owner (shipHostOps).
// Without replication the step parks until node is recovered or revived; if
// the node came back before the enqueue, the queue drains at once.
func (rt *Runtime) defer_(node int, apply func(*Runtime)) {
	if rt.C.ReplicationFactor() > 0 {
		rt.recMu.Lock()
		defer rt.recMu.Unlock()
		apply(rt)
		return
	}
	rt.pendMu.Lock()
	if rt.pending == nil {
		rt.pending = make(map[int][]func(*Runtime))
	}
	rt.pending[node] = append(rt.pending[node], apply)
	rt.pendMu.Unlock()
	if !rt.C.Fabric.NodeDown(node) {
		rt.FlushPending(node)
	}
}

// FlushPending applies the release-side steps parked while node was
// unreachable. It runs against the node's (NVRAM-backed) memory directly,
// the way recovery does; callers invoke it from Recover and after Revive.
func (rt *Runtime) FlushPending(node int) int {
	rt.pendMu.Lock()
	ops := rt.pending[node]
	delete(rt.pending, node)
	rt.pendMu.Unlock()
	for _, op := range ops {
		op(rt)
	}
	return len(ops)
}

// parked reports whether any release-side step is parked, for any node.
func (rt *Runtime) parked() bool {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	return len(rt.pending) > 0
}

// PendingOps reports how many release-side steps are parked for node.
func (rt *Runtime) PendingOps(node int) int {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	return len(rt.pending[node])
}

// EnableAutoRecovery wires the cluster's failure detector to the
// transaction layer. Without replication, the elected coordinator replays
// the crashed node's NVRAM logs, drains deferred writes, and brings the node
// back online (reboot-style recovery). With replication, the coordinator
// instead promotes the partition's highest-ranked live backup and replays
// only its redo tail — hot failover, the only repair of a replicated
// cluster, which writes no write-ahead record for Recover to read; the
// crashed machine is never revived and its clients fail over at the workload
// level.
func (rt *Runtime) EnableAutoRecovery() {
	rt.C.OnDeath(func(coordinator, crashed int) {
		if rt.C.ReplicationFactor() > 0 {
			rt.Failover(crashed)
			return
		}
		rt.Recover(crashed)
		rt.C.Revive(crashed)
		rt.FlushPending(crashed) // anything parked between Recover and Revive
	})
}
