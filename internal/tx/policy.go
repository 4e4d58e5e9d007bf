package tx

import (
	"fmt"

	"drtm/internal/obs"
)

// ReadPolicy selects the concurrency-control arm used for read records that
// do not run inside an HTM region — the remote READ-set records of a
// transaction and every record, local ones included, of a read-only
// transaction (writes always take exclusive locks):
//
//	PolicyLease       — shared lease via RDMA CAS (~14.5µs modeled), the
//	                    paper's Section 4.2 protocol. Safe under any
//	                    contention; pays the CAS on every read.
//	PolicySpeculative — one-RTT OCC read (~1.5µs READ), validated at commit
//	                    with a version re-READ wave. ~3.3x cheaper when the
//	                    record is quiet; loses whole-transaction retries to
//	                    validation failures when writers hit it.
//	PolicyAdaptive    — speculate, and lease only a transaction that keeps
//	                    losing: a read-write transaction's reads speculate
//	                    until it has lost escalateAfter validations, and
//	                    every later read of it takes a lease (ExecRO
//	                    escalates by attempts, under every policy). Where
//	                    entries carry version chains, a read-only Scan of
//	                    mvccScanFanout rows or more runs its transaction on
//	                    the PolicyMVCC snapshot arm.
//	PolicyExclusive   — reads take exclusive write locks (the Figure 17
//	                    "no read lease" ablation): no read-read sharing.
//
// The zero value PolicyDefault resolves to PolicyLease at the tx layer
// (keeping Runtime's zero value semantics). The drtm package maps an unset
// Options.ReadPolicy to PolicyAdaptive — adaptive is the user-facing default.
//
// The software fallback path always uses locks regardless of policy: its
// in-place updates cannot be rolled back, so optimistic reads are unsound
// there (see fallback.go).
type ReadPolicy int

const (
	// PolicyDefault is the unset zero value; see ReadPolicy.
	PolicyDefault ReadPolicy = iota
	// PolicyLease always takes lease-based shared locks for remote reads.
	PolicyLease
	// PolicySpeculative always takes one-RTT OCC reads for remote reads.
	PolicySpeculative
	// PolicyAdaptive speculates until a transaction keeps losing, then leases.
	PolicyAdaptive
	// PolicyExclusive locks remote reads exclusively (ablation arm).
	PolicyExclusive
	// PolicyMVCC serves read-only transactions from version chains at a
	// cluster-wide snapshot stamp: one entry+chain READ per key, no lease
	// CAS, no confirm wave (see mvcc.go). Read-write transactions under
	// PolicyMVCC use the lease arm — chains only serve reads. Requires
	// cluster.Config.MVCCDepth > 0 (0 by default; drtm.Open sets 4 under this
	// policy alone); with chains disabled the RO layer runs the confirm-wave
	// scheme instead.
	PolicyMVCC
)

func (p ReadPolicy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyLease:
		return "lease"
	case PolicySpeculative:
		return "spec"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyExclusive:
		return "exclusive"
	case PolicyMVCC:
		return "mvcc"
	}
	return fmt.Sprintf("ReadPolicy(%d)", int(p))
}

// Valid reports whether p is one of the defined policies.
func (p ReadPolicy) Valid() bool {
	return p >= PolicyDefault && p <= PolicyMVCC
}

// resolvePolicy computes the effective read policy for a new transaction:
// the per-transaction override if set (ExecWith), else the runtime-wide
// policy.
func (e *Executor) resolvePolicy() ReadPolicy {
	if p := e.override; p != PolicyDefault {
		return p
	}
	if p := e.rt.ReadPolicy; p != PolicyDefault {
		return p
	}
	return PolicyLease
}

// ExecWith is Exec with the read policy forced to p for every attempt of
// this one transaction, overriding the runtime-wide policy — e.g. a
// read-mostly transaction forcing PolicySpeculative.
func (e *Executor) ExecWith(p ReadPolicy, build func(t *Tx) error) error {
	prev := e.override
	e.override = p
	defer func() { e.override = prev }()
	return e.Exec(build)
}

// ExecROWith is ExecRO with the read policy forced to p (PolicyExclusive
// behaves as PolicyLease: read-only transactions never take write locks).
func (e *Executor) ExecROWith(p ReadPolicy, build func(ro *RO) error) error {
	prev := e.override
	e.override = p
	defer func() { e.override = prev }()
	return e.ExecRO(build)
}

// escalateAfter is how many attempts one transaction may lose before the rest
// run under leases. ExecRO counts attempts lost to any cause (a lock, a
// truncated chain, a confirmation); a read-write transaction under
// PolicyAdaptive counts the validations it lost (Executor.wasted). Speculation
// and the snapshot arm take no lock, so nothing stops a writer from moving a
// header or lapping a version ring under every attempt; a lease (Section 4.2)
// makes it wait, which bounds the retries.
const escalateAfter = 8

// mvccScanFanout is the read-only Scan fanout (requested row count) at which
// PolicyAdaptive runs the whole transaction on the MVCC snapshot arm instead of
// the confirm-wave scheme: a wide scan amortizes one entry+chain READ per row
// against the confirm wave's per-row re-validation READ and its retry tail.
const mvccScanFanout = 32

// routeRead decides the arm for one read under the transaction's policy. Under
// PolicyAdaptive a read speculates until its transaction has lost escalateAfter
// validations; from then on every read of it takes a lease. Both routes count.
func (e *Executor) routeRead(p ReadPolicy) (spec bool) {
	switch {
	case p == PolicySpeculative:
		return true
	case p != PolicyAdaptive:
		return false
	case e.wasted >= escalateAfter:
		e.w.Obs.Inc(obs.EvAdaptLease)
		return false
	}
	e.w.Obs.Inc(obs.EvAdaptSpec)
	return true
}
