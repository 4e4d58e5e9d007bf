package rdma

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
)

// Fault-injection errors. Every error-returning verb fails with one of
// these; the legacy panicking verbs exist only for fault-free harnesses.
var (
	// ErrNodeUnreachable reports a verb issued against a crashed (fail-stop)
	// node. The condition is persistent until the node is revived, so the
	// transaction layer treats it as "node down" rather than retrying.
	ErrNodeUnreachable = errors.New("rdma: node unreachable")
	// ErrTimeout reports a transient verb failure (lost completion, injected
	// fault): retrying the same verb may succeed.
	ErrTimeout = errors.New("rdma: verb timed out")
	// ErrNoRegion reports a one-sided access to an unregistered region.
	ErrNoRegion = errors.New("rdma: no such region")
	// ErrNoHandler reports a two-sided call to a node with no verbs handler.
	ErrNoHandler = errors.New("rdma: no verbs handler")
	// ErrFenced reports a log-append WR rejected by the target log sink's
	// view-epoch fence: the appender's view of some partition is stale (a
	// zombie ex-primary, or a survivor that has not yet observed a
	// promotion). The append had no effect; the appender must refresh its
	// view before retrying.
	ErrFenced = errors.New("rdma: log append fenced by view epoch")
	// ErrFlushed reports a work request that was never attempted: an earlier
	// work request of the same Poll to the same node completed in error, which
	// put the connection in the error state and flushed everything queued
	// behind it (SendQueue.Poll). It says nothing about the target word or the
	// node — the request had no effect and can be issued again.
	ErrFlushed = errors.New("rdma: work request flushed behind a failed one")
)

// FaultRule describes the behavior of one node or link under a FaultPlan.
type FaultRule struct {
	// FailProb is the probability (0..1) that a verb fails with ErrTimeout
	// after charging the full modeled timeout.
	FailProb float64
	// ExtraNS is added latency charged to every verb that matches the rule
	// (congestion, a slow switch hop), fault or not.
	ExtraNS int64
}

// FaultPlan is a deterministic, seedable schedule of verb faults installed
// on a Fabric. Rules are matched per destination node and per directed
// (from, to) link; when both match, the link rule's probabilities and
// latencies stack on top of the node rule's. The plan draws from a single
// seeded RNG under a mutex, so a fixed seed plus a fixed verb interleaving
// replays the same faults — the property `make chaos` depends on.
type FaultPlan struct {
	mu   sync.Mutex
	rng  *rand.Rand
	node map[int]FaultRule
	link map[[2]int]FaultRule

	// script fails verbs of a directed link by position (ScriptFaults).
	script map[[2]int]*faultScript
}

// faultScript is one link's scripted faults: seen counts the link's verbs
// drawn since the script was installed, fails holds the positions that fail,
// and hook, if set, runs as the verb at position at is drawn (ScriptHook).
type faultScript struct {
	seen  int
	fails []int
	at    int
	hook  func()
}

// NewFaultPlan creates an empty plan drawing from a RNG seeded with seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:  rand.New(rand.NewSource(seed)),
		node: make(map[int]FaultRule),
		link: make(map[[2]int]FaultRule),
	}
}

// NodeRule installs (or replaces) the rule applied to every verb whose
// destination is node.
func (p *FaultPlan) NodeRule(node int, r FaultRule) {
	p.mu.Lock()
	p.node[node] = r
	p.mu.Unlock()
}

// LinkRule installs (or replaces) the rule for verbs issued by from
// against to (directed).
func (p *FaultPlan) LinkRule(from, to int, r FaultRule) {
	p.mu.Lock()
	p.link[[2]int{from, to}] = r
	p.mu.Unlock()
}

// ScriptFaults is the tests' hook for a fault at an exact place: of the verbs
// from issues against to from now on, those at the given positions (counting
// from 1) fail with ErrTimeout and no other does on the script's account —
// whatever the schedule, which a probabilistic rule under a searched seed
// cannot promise once two goroutines draw from the plan. A work request
// flushed behind a failed one draws nothing and takes no position. It replaces
// the link's earlier script and stacks on its rules.
func (p *FaultPlan) ScriptFaults(from, to int, positions ...int) {
	p.mu.Lock()
	if p.script == nil {
		p.script = make(map[[2]int]*faultScript)
	}
	p.script[[2]int{from, to}] = &faultScript{fails: positions}
	p.mu.Unlock()
}

// ScriptHook is the tests' hook for a crash at an exact place: fn runs — on the
// issuing goroutine, outside the plan's lock — as the pos-th of the verbs from
// issues against to from now on is drawn, counting from 1 as ScriptFaults does.
// The verb's own reachability checks are behind it by then, so a fn that
// crashes from's machine lets exactly this verb land and none after it. It
// replaces the link's earlier script.
func (p *FaultPlan) ScriptHook(from, to, pos int, fn func()) {
	p.mu.Lock()
	if p.script == nil {
		p.script = make(map[[2]int]*faultScript)
	}
	p.script[[2]int{from, to}] = &faultScript{at: pos, hook: fn}
	p.mu.Unlock()
}

// Clear removes all rules and scripts (the RNG keeps its state).
func (p *FaultPlan) Clear() {
	p.mu.Lock()
	p.node = make(map[int]FaultRule)
	p.link = make(map[[2]int]FaultRule)
	p.script = nil
	p.mu.Unlock()
}

// draw evaluates the rules for a verb from -> to, returning extra latency
// to charge and whether the verb must fail with ErrTimeout.
func (p *FaultPlan) draw(from, to int) (extraNS int64, fail bool) {
	p.mu.Lock()
	extraNS, fail, hook := p.drawLocked(from, to)
	p.mu.Unlock()
	if hook != nil {
		hook()
	}
	return extraNS, fail
}

func (p *FaultPlan) drawLocked(from, to int) (extraNS int64, fail bool, hook func()) {
	if len(p.node) == 0 && len(p.link) == 0 && len(p.script) == 0 {
		return 0, false, nil
	}
	if sc := p.script[[2]int{from, to}]; sc != nil {
		sc.seen++
		fail = slices.Contains(sc.fails, sc.seen)
		if sc.seen == sc.at {
			hook = sc.hook
		}
	}
	if r, ok := p.node[to]; ok {
		extraNS += r.ExtraNS
		if !fail && r.FailProb > 0 && p.rng.Float64() < r.FailProb {
			fail = true
		}
	}
	if r, ok := p.link[[2]int{from, to}]; ok {
		extraNS += r.ExtraNS
		if !fail && r.FailProb > 0 && p.rng.Float64() < r.FailProb {
			fail = true
		}
	}
	return extraNS, fail, hook
}
