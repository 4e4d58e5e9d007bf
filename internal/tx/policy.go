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
//	PolicyLease     — shared lease via RDMA CAS (~14.5µs modeled), the
//	                  paper's Section 4.2 protocol. Safe under any
//	                  contention; pays the CAS on every read.
//	PolicyAdaptive  — one-RTT OCC read (~1.5µs READ), validated at commit
//	                  with a version re-READ wave. ~3.3x cheaper when the
//	                  record is quiet; loses whole-transaction retries to
//	                  validation failures when writers hit it, and leases
//	                  every read once it escalates, as every transaction
//	                  does after escalateAfter lost attempts (the software
//	                  fallback of an escalated attempt leases every read).
//	PolicyExclusive — reads take exclusive write locks (the Figure 17
//	                  "no read lease" ablation): no read-read sharing.
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
	// PolicyAdaptive takes one-RTT OCC reads until a transaction escalates,
	// then leases.
	PolicyAdaptive
	// PolicyExclusive locks remote reads exclusively (ablation arm).
	PolicyExclusive
)

func (p ReadPolicy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyLease:
		return "lease"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyExclusive:
		return "exclusive"
	}
	return fmt.Sprintf("ReadPolicy(%d)", int(p))
}

// Valid reports whether p is one of the defined policies.
func (p ReadPolicy) Valid() bool {
	return p >= PolicyDefault && p <= PolicyExclusive
}

// resolvePolicy computes the effective read policy for a new transaction:
// the runtime-wide policy, PolicyLease when unset.
func (e *Executor) resolvePolicy() ReadPolicy {
	if p := e.rt.ReadPolicy; p != PolicyDefault {
		return p
	}
	return PolicyLease
}

// escalateAfter is how many attempts one transaction may lose, to any cause (a
// lock, a lease, a validation, the body's own ErrRetry),
// before every later attempt escalates (DESIGN.md, "Progress"): a read-write
// attempt declares its records holding nothing and runs the software fallback,
// whose acquisitions wait for a held record in the global order instead of
// aborting; a read-only attempt leases every read, waiting the same way. An
// escalated attempt still loses to a record that moved while it waited.
const escalateAfter = 8

// routeRead decides the arm for one read under the transaction's policy:
// PolicyAdaptive speculates (and counts the route), every other policy leases.
func (e *Executor) routeRead(p ReadPolicy) (spec bool) {
	if p != PolicyAdaptive {
		return false
	}
	e.w.Obs.Inc(obs.EvAdaptSpec)
	return true
}
