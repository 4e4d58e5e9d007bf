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
//     unreachable node goes to runOnDead, which runs it at once on the node's
//     memory, so a committed transaction's effects are never lost, the
//     invariant the chaos experiment checks. The write-backs and unlocks go
//     out as one doorbell chain of WRITEs (Tx.postWave), the host ops as one
//     message per host (Executor.applyHostOps).

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
// step the caller hands to runOnDead by its own rule (mustWrite, mustUnlock,
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
	e.rt.runOnDead(func() { e.rt.arenaOf(node, table).Write(off, words) })
}

// mustUnlock is the re-drive of a clean release whose WRITE did not complete:
// an owner-guarded CAS (WLocked(self) -> Init) rather than the blind WRITE.
// The WRITE fails when a machine on the path is down — this one included —
// and from then on recovery may free the lock and a survivor re-lock the
// record: a late unlock from this (possibly zombie) transaction must not
// clobber the new owner. A failed compare means the lock is already gone —
// done either way.
func (e *Executor) mustUnlock(node, table int, off memory.Offset) {
	locked := clock.WLocked(uint8(e.w.Node.ID))
	if e.redrive(func() error { _, _, err := e.w.QP.TryCAS(node, table, off, locked, clock.Init); return err }) {
		e.rt.runOnDead(func() { e.rt.arenaOf(node, table).CAS(off, locked, clock.Init) })
	}
}

// zombie reports whether this worker's own machine is currently marked
// crashed — its goroutine keeps running in the simulator, but under
// fail-stop semantics its volatile effects must not reach live memory.
func (e *Executor) zombie() bool {
	return e.rt.C.Fabric.NodeDown(e.w.Node.ID)
}

// runOnDead runs a release-side step for an unreachable node at once, on the
// node's memory, serialized with the repairs (Recover, Failover) by recMu.
// Without replication that memory is NVRAM the crash kept (Section 4.6), and
// the step writes or unlocks a row a live coordinator holds, unlinks an entry
// pinned to its incarnation|version, or runs a store op no log of the node
// names: words Recover — which installs only into rows the crashed machine
// holds and frees only its locks — leaves alone, so the step lands the same
// before Recover as after it. Under replication the backups' rings hold every
// committed value, so a write-back, unlock or removal lands in memory nothing
// serves once the partition is promoted, and a store op (the one step no ring
// carries) runs at the partition's owner (shipHostOps).
func (rt *Runtime) runOnDead(step func()) {
	rt.recMu.Lock()
	defer rt.recMu.Unlock()
	step()
}

// EnableAutoRecovery wires the cluster's failure detector to the
// transaction layer. Without replication, the elected coordinator replays
// the crashed node's NVRAM logs and brings the node back online
// (reboot-style recovery). With replication, the coordinator instead
// promotes the partition's highest-ranked live backup and replays only its
// redo tail — hot failover, the only repair of a replicated
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
	})
}
