package cluster

import (
	"errors"
	"sync"
	"time"

	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Lease-based membership (Section 4.6's "ZooKeeper-like service", realized
// the way FaRM does it): every node renews a liveness lease by FAA-ing a
// per-node heartbeat counter in a shared membership region; each node also
// monitors its peers' counters. A counter that stops advancing for
// failureTimeout means the owner's lease expired. The suspecting node
// confirms with probes (a transient fabric fault must not trigger a bogus
// recovery), then races for the crashed node's coordinator word with RDMA
// CAS — staggered by survivor rank, so the lowest-ID survivor usually wins.
// The CAS winner is the recovery coordinator and runs the OnDeath handler
// (the transaction layer wires tx.Runtime.Recover + Revive there).

// RegionMembership is the fabric region ID of the shared membership arena.
// It is registered on every node: the membership service is external to any
// single machine and reachable as long as the caller itself is up.
const RegionMembership = 1 << 30

// membershipArenaID is the memory arena ID of the membership region.
const membershipArenaID = 1 << 21

// hbOff is the heartbeat word of node i; coordOff its coordinator word.
func hbOff(i int) memory.Offset { return memory.Offset(i) }
func (c *Cluster) coordOff(i int) memory.Offset {
	return memory.Offset(c.cfg.Nodes + i)
}

// The detector's timing. A heartbeat renews a node's lease every
// heartbeatInterval; a peer's lease expires when its heartbeat has stalled for
// failureTimeout, which spans many intervals so that a scheduling hiccup is
// not a crash (and a false suspicion is cancelled by the probe confirmation,
// which makes an aggressive timeout safe, just noisy); each survivor delays
// its coordinator CAS by electionStagger per rank, biasing the election to
// the lowest ID.
const (
	heartbeatInterval = time.Millisecond
	failureTimeout    = 12 * time.Millisecond
	electionStagger   = 2 * time.Millisecond
)

// probeAttempts bounds death confirmation: a suspect is declared dead only
// on a definitive ErrNodeUnreachable; this many inconclusive probes
// (transient timeouts) cancel the suspicion instead.
const probeAttempts = 3

// OnDeath installs the handler the elected recovery coordinator runs:
// h(coordinator, crashed). At most one survivor runs it per crash (the
// coordinator-word CAS winner). Replaces any previous handler.
func (c *Cluster) OnDeath(h func(coordinator, crashed int)) {
	c.deathMu.Lock()
	c.onDeath = h
	c.deathMu.Unlock()
}

func (c *Cluster) deathHandler() func(coordinator, crashed int) {
	c.deathMu.Lock()
	defer c.deathMu.Unlock()
	return c.onDeath
}

// detector is one node's view of its peers' liveness leases.
type detector struct {
	c    *Cluster
	node int
	qp   *rdma.QP
	sh   *obs.Shard

	mu        sync.Mutex
	last      []uint64    // last heartbeat value seen per peer
	lastSeen  []time.Time // when it last advanced (zero = unknown yet)
	suspected []bool      // a confirmation goroutine is in flight or done
}

func newDetector(c *Cluster, node int) *detector {
	n := c.cfg.Nodes
	return &detector{
		c:    c,
		node: node,
		// The detector's verbs are control-plane traffic on real time; a
		// nil virtual clock keeps them out of throughput accounting.
		qp:        c.Fabric.NewQP(node, nil),
		sh:        c.Obs.Shard(node * c.cfg.WorkersPerNode),
		last:      make([]uint64, n),
		lastSeen:  make([]time.Time, n),
		suspected: make([]bool, n),
	}
}

func (d *detector) run(stop <-chan struct{}) {
	defer d.c.detWG.Done()
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.tick()
		}
	}
}

// tick renews this node's own lease and checks every peer's.
func (d *detector) tick() {
	c := d.c
	if !c.nodes[d.node].alive.Load() {
		// Fail-stop: a crashed node neither heartbeats nor monitors. Forget
		// the peer view so stale timers can't fire right after revival.
		d.mu.Lock()
		for i := range d.lastSeen {
			d.lastSeen[i] = time.Time{}
			d.suspected[i] = false
		}
		d.mu.Unlock()
		return
	}

	// Renew our lease. A transient fault is one missed beat — harmless
	// while the failure timeout spans many heartbeat intervals.
	_, _ = d.qp.TryFAA(d.node, RegionMembership, hbOff(d.node), 1)

	hb := make([]uint64, c.cfg.Nodes)
	if err := d.qp.TryRead(d.node, RegionMembership, 0, hb); err != nil {
		return
	}
	now := time.Now()
	var suspects []int
	d.mu.Lock()
	for j := range hb {
		if j == d.node {
			continue
		}
		if hb[j] != d.last[j] || d.lastSeen[j].IsZero() {
			d.last[j] = hb[j]
			d.lastSeen[j] = now
			d.suspected[j] = false
			continue
		}
		if d.suspected[j] || now.Sub(d.lastSeen[j]) <= failureTimeout {
			continue
		}
		d.suspected[j] = true
		suspects = append(suspects, j)
	}
	d.mu.Unlock()
	for _, j := range suspects {
		go d.confirmAndElect(j)
	}
}

func (d *detector) clearSuspicion(j int) {
	d.mu.Lock()
	d.suspected[j] = false
	d.lastSeen[j] = time.Now()
	d.mu.Unlock()
}

// confirmAndElect turns an expired lease into a recovery: probe-confirm the
// death, then race for the crashed node's coordinator word.
func (d *detector) confirmAndElect(dead int) {
	c := d.c
	confirmed := false
	for i := 0; i < probeAttempts; i++ {
		err := d.qp.Probe(dead)
		if err == nil {
			// False alarm (scheduling hiccup or lost heartbeats): the node
			// answered, so its lease gets a fresh grace period.
			d.clearSuspicion(dead)
			return
		}
		if errors.Is(err, rdma.ErrNodeUnreachable) {
			confirmed = true
			break
		}
		time.Sleep(heartbeatInterval) // inconclusive: probe again
	}
	if !confirmed {
		d.clearSuspicion(dead)
		return
	}
	d.sh.Inc(obs.EvDetect)

	// Lowest-ID-survivor bias: rank = how many live nodes precede us.
	rank := 0
	for i := 0; i < d.node; i++ {
		if i != dead && !c.Fabric.NodeDown(i) {
			rank++
		}
	}
	time.Sleep(time.Duration(rank) * electionStagger)

	for i := 0; i < probeAttempts; i++ {
		_, won, err := d.qp.TryCAS(d.node, RegionMembership, c.coordOff(dead),
			0, uint64(d.node)+1)
		if errors.Is(err, rdma.ErrTimeout) {
			continue
		}
		if err != nil || !won {
			return // another survivor is the coordinator
		}
		// Stale-claim guard: if the node answers now, an earlier coordinator
		// already recovered and revived it, and our CAS hit the cleared word
		// of the NEXT incarnation. Withdraw instead of re-recovering.
		if d.qp.Probe(dead) == nil {
			_, _, _ = d.qp.TryCAS(d.node, RegionMembership, c.coordOff(dead),
				uint64(d.node)+1, 0)
			d.clearSuspicion(dead)
			return
		}
		if h := c.deathHandler(); h != nil {
			h(d.node, dead)
		}
		return
	}
}
