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
//	PolicyAdaptive    — per-bucket online choice between the two arms: a
//	                    conflict-EWMA heat table (obs.HeatMap) classifies
//	                    each kvs bucket — or, for ordered tables, each
//	                    64-key range — hot or cold with hysteresis, and
//	                    every such read routes lease-when-hot,
//	                    spec-when-cold, re-classifying continuously as the
//	                    workload shifts.
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
	// PolicyAdaptive chooses per bucket: lease when hot, spec when cold.
	PolicyAdaptive
	// PolicyExclusive locks remote reads exclusively (ablation arm).
	PolicyExclusive
	// PolicyMVCC serves read-only transactions from version chains at a
	// cluster-wide snapshot stamp: one entry+chain READ per key, no lease
	// CAS, no confirm wave (see mvcc.go). Read-write transactions under
	// PolicyMVCC use the lease arm — chains only serve reads. Requires
	// cluster.Config.MVCCDepth > 0; with chains disabled the RO layer runs
	// the confirm-wave scheme instead.
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

// PolicyConfig tunes PolicyAdaptive's heat table. The zero value of any
// field selects its default.
type PolicyConfig struct {
	// EWMAHalfLife is the conflict EWMA's half-life in bucket accesses
	// (default 64): after that many conflict-free routed reads a bucket's
	// heat halves. Access-clocked (not wall-clocked) so classification is
	// independent of host speed.
	EWMAHalfLife int

	// HotThreshold is the heat at which a cold bucket turns hot and reads
	// switch to the lease arm (default 8.0). Heat is fed by lost validations,
	// each weighed by the attempts its transaction had already lost that way
	// (feedConflict): by default a bucket goes hot at one transaction's fifth
	// consecutive loss there (0+1+2+3+4 > 8).
	// The threshold is deliberately high: a lease costs a ~14.5µs CAS per
	// read and stalls writers for the lease term, which only pays off once
	// speculative retries start compounding toward livelock.
	HotThreshold float64

	// Hysteresis is the fraction of HotThreshold a hot bucket must decay
	// below before reverting to the spec arm (default 0.5, i.e. exit at
	// half the entry heat), preventing near-threshold buckets from
	// flapping between arms.
	Hysteresis float64

	// HeatSlots sizes the heat table (rounded up to a power of two,
	// default 4096 slots ≈ 32 KiB). kvs buckets hash onto slots; colliding
	// buckets merge their heat, erring toward the conservative lease arm.
	HeatSlots int

	// MVCCScanFanout is the read-only Scan fanout (requested row count) at
	// which PolicyAdaptive routes the whole transaction to the MVCC
	// snapshot arm instead of the confirm-wave scheme (default 32): wide
	// scans amortize the one entry+chain READ per row against the
	// confirm wave's per-row re-validation READ plus its abort-retry tail.
	// Point reads and narrow scans keep the speculative arm.
	MVCCScanFanout int

	// MVCCHotFanout replaces MVCCScanFanout when the scanned range's heat
	// slot is classified hot (default 8): on a write-hot range the
	// confirm-wave scan keeps failing validation, so snapshot isolation
	// pays off at much smaller fanouts.
	MVCCHotFanout int
}

// DefaultPolicyConfig returns the adaptive tuning defaults.
func DefaultPolicyConfig() PolicyConfig {
	return PolicyConfig{EWMAHalfLife: 64, HotThreshold: 8.0, Hysteresis: 0.5, HeatSlots: 4096,
		MVCCScanFanout: 32, MVCCHotFanout: 8}
}

// normalized fills zero fields with defaults and clamps nonsense.
func (c PolicyConfig) normalized() PolicyConfig {
	d := DefaultPolicyConfig()
	if c.EWMAHalfLife <= 0 {
		c.EWMAHalfLife = d.EWMAHalfLife
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = d.HotThreshold
	}
	if c.Hysteresis <= 0 || c.Hysteresis >= 1 {
		c.Hysteresis = d.Hysteresis
	}
	if c.HeatSlots <= 0 {
		c.HeatSlots = d.HeatSlots
	}
	if c.MVCCScanFanout <= 0 {
		c.MVCCScanFanout = d.MVCCScanFanout
	}
	if c.MVCCHotFanout <= 0 {
		c.MVCCHotFanout = d.MVCCHotFanout
	}
	return c
}

func (c PolicyConfig) newHeatMap() *obs.HeatMap {
	n := c.normalized()
	return obs.NewHeatMap(n.HeatSlots, n.EWMAHalfLife,
		n.HotThreshold, n.HotThreshold*n.Hysteresis)
}

// SetPolicyConfig replaces the adaptive tuning and rebuilds the heat table
// (all buckets reset to cold). Call before starting workers; the table
// itself is race-safe but the swap is not synchronized against executors.
func (rt *Runtime) SetPolicyConfig(c PolicyConfig) {
	rt.policyCfg = c.normalized()
	rt.heat = rt.policyCfg.newHeatMap()
}

// PolicyCfg returns the normalized adaptive tuning in effect.
func (rt *Runtime) PolicyCfg() PolicyConfig { return rt.policyCfg }

// HotBuckets returns the number of heat-table slots currently classified
// hot (diagnostic; the stats layer derives the same gauge from the
// arm-switch counters).
func (rt *Runtime) HotBuckets() int { return rt.heat.HotCount() }

// ResetHeat clears the heat table to all-cold (benchmark warm-up resets).
func (rt *Runtime) ResetHeat() { rt.heat.Reset() }

// heatKey packs a record's home (node, table, main bucket) into the heat
// table's key space. The bucket — not the key — is the classification
// granularity: one hot key heats its whole chain, which is the same
// granularity at which its neighbors already share lookup READs.
func heatKey(node, table int, bucket uint64) uint64 {
	return bucket ^ uint64(table+1)<<40 ^ uint64(node+1)<<52
}

// orderedHeatShift sizes an ordered table's heat granule: 64 consecutive
// keys share a slot (ordered shards have no hash buckets). Range scans key
// their heat by the same shift (routeScanMVCC, feedScanHeat), so point reads
// and scans of one range share one classification.
const orderedHeatShift = 6

// heatBucket is the record's classification granule: its main hash bucket,
// or its key range in an ordered table.
func (e *Executor) heatBucket(h *recHandle) uint64 {
	if h.ordered {
		return h.key >> orderedHeatShift
	}
	return e.hashTable(h).BucketOf(h.key)
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
// read-mostly scan forcing PolicySpeculative regardless of heat.
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

// routeRead decides the arm for one read under the transaction's policy. For
// PolicyAdaptive this is the routing hot path: one decayed heat-table access
// classifies the record's bucket, counting the route and any hot/cold
// transition (and tracing the transition when enabled).
func (e *Executor) routeRead(p ReadPolicy, h *recHandle) (spec bool) {
	switch {
	case p == PolicySpeculative:
		return true
	case p != PolicyAdaptive:
		return false
	}
	bucket := e.heatBucket(h)
	hot, sw := e.rt.heat.Touch(heatKey(h.node, h.table, bucket))
	sh := e.w.Obs
	if sw != 0 {
		e.noteSwitch(h.node, h.table, bucket, hot)
	}
	if hot {
		sh.Inc(obs.EvAdaptLease)
		return false
	}
	sh.Inc(obs.EvAdaptSpec)
	return true
}

// feedConflict is the adaptive selector's feedback: a speculative read failed
// its validation — a writer committed between fetch and commit point, which a
// lease would have kept out — weighed by the attempts the running transaction
// has already lost this way. A first loss weighs nothing: one retry is cheaper
// than the CAS on every read that would prevent it. The n-th consecutive loss
// is evidence of a retry cascade, what a lease is for, and weighs n - 1: the
// fifth turns a cold bucket hot by default. Losses to locks and leases feed
// nothing: leasing causes those. Skipped unless the runtime policy is adaptive.
func (e *Executor) feedConflict(h *recHandle) {
	if e.rt.ReadPolicy != PolicyAdaptive || e.wasted == 0 {
		return
	}
	bucket := e.heatBucket(h)
	_, sw := e.rt.heat.Conflict(heatKey(h.node, h.table, bucket), float64(e.wasted))
	if sw != 0 {
		e.noteSwitch(h.node, h.table, bucket, true)
	}
}

// noteSwitch counts one bucket reclassification and records it in the
// trace ring (Kind = TraceArmSwitch; TxID carries the packed heat key).
func (e *Executor) noteSwitch(node, table int, bucket uint64, hot bool) {
	sh := e.w.Obs
	if hot {
		sh.Inc(obs.EvArmSwitchToLease)
	} else {
		sh.Inc(obs.EvArmSwitchToSpec)
	}
	if sh.TraceEnabled() {
		sh.Trace(obs.TraceEvent{
			Kind: obs.TraceArmSwitch, TxID: heatKey(node, table, bucket),
			Node: int32(e.w.Node.ID), Worker: int32(e.w.ID),
			Hot: hot, StartNS: int64(e.w.VClock.Now()),
		})
	}
}
