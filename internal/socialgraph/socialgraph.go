// Package socialgraph is a scan-heavy workload over one ordered table of
// friendship edges, built to pin the "a read-only scan sees a snapshot"
// guarantee of the RO confirm wave.
//
// Schema: a single EDGES table keyed by owner<<32|friend (SegShift 32, so
// one person's adjacency list is one stamp segment and a scan of it
// validates precisely against inserts into that list). The value is
// [pair_stamp, peer]: both directed edges of a friendship carry the same
// pair_stamp, written atomically by one transaction.
//
// Invariant (the satellite checker): any read-only transaction that scans
// a person's adjacency list and point-reads each reverse edge must see,
// for every live edge (a,b), a live reverse edge (b,a) with the SAME
// pair_stamp — i.e. no half-applied Befriend/Unfriend is ever visible to a
// confirmed RO snapshot, even though the two edges usually live on
// different partitions.
package socialgraph

import (
	"fmt"
	"math/rand"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/tx"
)

// TableEdges holds directed friendship edges keyed owner<<32|friend.
const TableEdges = 30

// EdgeKey builds the directed edge key for owner -> friend.
func EdgeKey(owner, friend uint64) uint64 { return owner<<32 | friend }

// Config sizes the graph.
type Config struct {
	Nodes  int
	People int // person ids 0..People-1
}

// DefaultConfig spreads 16 people per node.
func DefaultConfig(nodes int) Config { return Config{Nodes: nodes, People: 16 * nodes} }

// Partitioner routes an edge to its owner's partition, so one person's
// adjacency list is contiguous on one node and a friendship's two edges
// usually span two.
func (c Config) Partitioner() tx.Partitioner {
	return func(table int, key uint64) int {
		if table != TableEdges {
			panic(fmt.Sprintf("socialgraph: unknown table %d", table))
		}
		return int(key>>32) % c.Nodes
	}
}

// Workload owns the populated edge table.
type Workload struct {
	Cfg Config
	rt  *tx.Runtime
}

// Setup defines the edge table on an existing runtime (whose partitioner
// must be cfg.Partitioner()) and seeds a friendship ring 0-1-2-...-0, each
// pair stamped uniquely.
func Setup(rt *tx.Runtime, cfg Config) (*Workload, error) {
	if cfg.People < 3 {
		return nil, fmt.Errorf("socialgraph: need at least 3 people, have %d", cfg.People)
	}
	rt.DefineOrderedSeg(TableEdges, 64*cfg.People, 2, 32)
	w := &Workload{Cfg: cfg, rt: rt}
	for i := 0; i < cfg.People; i++ {
		a, b := uint64(i), uint64((i+1)%cfg.People)
		if err := w.loadEdge(a, b, uint64(1000+i)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// loadEdge bulk-inserts both directed edges of one friendship on their home
// shards and every backup's replica shard.
func (w *Workload) loadEdge(a, b, stamp uint64) error {
	for _, e := range [2][3]uint64{{a, b, stamp}, {b, a, stamp}} {
		part := int(e[0]) % w.Cfg.Nodes
		for _, node := range w.rt.C.Copies(nil, part) {
			sh := w.rt.C.Node(node).Ordered(cluster.CopyRegion(part, TableEdges, node))
			if err := sh.Insert(EdgeKey(e[0], e[1]), []uint64{e[2], e[1]}); err != nil {
				return fmt.Errorf("socialgraph: load edge %d->%d: %w", e[0], e[1], err)
			}
		}
	}
	return nil
}

// Client issues graph transactions from one worker.
type Client struct {
	w     *Workload
	e     *tx.Executor
	rng   *rand.Rand
	stamp uint64
	// Counts of committed ops by name.
	Counts map[string]int64
}

// NewClient binds a client to an executor. Seeds must differ across clients
// (they namespace the pair stamps).
func (w *Workload) NewClient(e *tx.Executor, seed int64) *Client {
	return &Client{w: w, e: e, rng: rand.New(rand.NewSource(seed)),
		stamp: uint64(seed) << 32, Counts: map[string]int64{}}
}

func (c *Client) pair() (uint64, uint64) {
	a := uint64(c.rng.Intn(c.w.Cfg.People))
	b := uint64(c.rng.Intn(c.w.Cfg.People - 1))
	if b >= a {
		b++
	}
	return a, b
}

// RunOne draws one transaction from the mix: scan-heavy, per the workload's
// role in the paper reproduction (RO transactions dominate).
func (c *Client) RunOne() error {
	var name string
	var err error
	a, b := c.pair()
	switch r := c.rng.Intn(100); {
	case r < 35:
		name, err = "befriend", c.Befriend(a, b)
	case r < 60:
		name, err = "unfriend", c.Unfriend(a, b)
	default:
		name, err = "check-snapshot", c.CheckSnapshotRO(a)
	}
	if err == nil {
		c.Counts[name]++
	}
	return err
}

// ordered returns the friendship's two directed edges in global key order —
// both Befriend and Unfriend declare them in this order (one Stage call, so
// both lock in one wave), so two writers racing on the same pair collide on
// the first edge.
func ordered(a, b uint64) [2][2]uint64 {
	if EdgeKey(a, b) < EdgeKey(b, a) {
		return [2][2]uint64{{a, b}, {b, a}}
	}
	return [2][2]uint64{{b, a}, {a, b}}
}

// Befriend inserts both directed edges with a fresh shared pair stamp in
// one transaction. An existing edge means the friendship (or a racing
// Befriend) already won: a clean no-op.
func (c *Client) Befriend(a, b uint64) error {
	c.stamp++
	stamp := c.stamp
	err := c.e.Exec(func(t *tx.Tx) error {
		es := ordered(a, b)
		if err := t.Stage(
			tx.Access{Table: TableEdges, Key: EdgeKey(es[0][0], es[0][1]), Insert: []uint64{stamp, es[0][1]}},
			tx.Access{Table: TableEdges, Key: EdgeKey(es[1][0], es[1][1]), Insert: []uint64{stamp, es[1][1]}},
		); err != nil {
			if err == kvs.ErrExists {
				return tx.ErrUserAbort
			}
			return err
		}
		return t.Execute(func(lc *tx.Local) error { return nil })
	})
	if err == tx.ErrUserAbort {
		return nil
	}
	return err
}

// Unfriend erases both directed edges in one transaction. A missing edge
// means the friendship doesn't exist (or a racing Unfriend won): no-op. The
// Start phase reports it, and so does a software-fallback attempt that takes
// its rows again after a racer's erase committed (Exec's ErrNotFound).
func (c *Client) Unfriend(a, b uint64) error {
	err := c.e.Exec(func(t *tx.Tx) error {
		es := ordered(a, b)
		if err := t.Stage(
			tx.Access{Table: TableEdges, Key: EdgeKey(es[0][0], es[0][1]), Erase: true},
			tx.Access{Table: TableEdges, Key: EdgeKey(es[1][0], es[1][1]), Erase: true},
		); err != nil {
			if err == tx.ErrNotFound {
				return tx.ErrUserAbort
			}
			return err
		}
		return t.Execute(func(lc *tx.Local) error { return nil })
	})
	if err == tx.ErrUserAbort || err == tx.ErrNotFound {
		return nil
	}
	return err
}

// CheckSnapshotRO is the live invariant checker: one RO transaction scans
// a's adjacency list and point-reads the reverse of every edge found. Both
// the scan and the reads confirm together, so a passing confirm wave
// asserts a single snapshot — a missing reverse edge or a stamp mismatch
// inside it is a half-applied friendship leaking into a reader. The result is
// the violation found, or the transaction's own error — ErrNodeDown across a
// failover.
func (c *Client) CheckSnapshotRO(a uint64) error {
	var violation error
	err := c.e.ExecRO(func(ro *tx.RO) error {
		violation = nil
		rows, err := ro.Scan(TableEdges, EdgeKey(a, 0), EdgeKey(a, 0xFFFFFFFF), 0)
		if err != nil {
			return err
		}
		for _, r := range rows {
			b, stamp := r.Val[1], r.Val[0]
			rev, err := ro.Read(TableEdges, EdgeKey(b, a))
			if err == tx.ErrNotFound {
				violation = fmt.Errorf("socialgraph: edge %d->%d live (stamp %d) but reverse missing",
					a, b, stamp)
				return nil
			}
			if err != nil {
				return err
			}
			if rev[0] != stamp {
				violation = fmt.Errorf("socialgraph: pair %d<->%d stamp mismatch: %d vs %d",
					a, b, stamp, rev[0])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return violation
}

// shardFor resolves a partition's current edge shard under the view.
func (w *Workload) shardFor(part int) (*kvs.Ordered, error) {
	node, region := w.rt.C.Serving(part, TableEdges)
	o, ok := w.rt.C.Node(node).OrderedRegion(region)
	if !ok {
		return nil, fmt.Errorf("socialgraph: no edge shard for partition %d", part)
	}
	return o, nil
}

// Audit is the quiesced symmetry check, routed by the current view: every
// live directed edge must have a live reverse with the same pair stamp.
func (w *Workload) Audit() error {
	live := make([]map[uint64][]uint64, w.Cfg.Nodes)
	for part := 0; part < w.Cfg.Nodes; part++ {
		o, err := w.shardFor(part)
		if err != nil {
			return err
		}
		live[part] = liveEdges(o)
	}
	for part, edges := range live {
		for k, v := range edges {
			a, b, stamp := k>>32, k&0xFFFFFFFF, v[0]
			if int(a)%w.Cfg.Nodes != part {
				return fmt.Errorf("socialgraph: edge %d->%d on wrong partition %d", a, b, part)
			}
			rev, ok := live[int(b)%w.Cfg.Nodes][EdgeKey(b, a)]
			if !ok {
				return fmt.Errorf("socialgraph: edge %d->%d live (stamp %d) but reverse missing", a, b, stamp)
			}
			if rev[0] != stamp {
				return fmt.Errorf("socialgraph: pair %d<->%d stamp mismatch: %d vs %d", a, b, stamp, rev[0])
			}
		}
	}
	return nil
}

// liveEdges walks one shard and returns its live rows. Quiesce-only.
func liveEdges(o *kvs.Ordered) map[uint64][]uint64 {
	out := map[uint64][]uint64{}
	arena := o.Arena()
	vw := o.ValueWords()
	o.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool {
		if kvs.Live(kvs.Incarnation(arena.LoadWord(kvs.IncVerOffset(off)))) {
			val := make([]uint64, vw)
			arena.Read(val, kvs.ValueOffset(off))
			out[k] = val
		}
		return true
	})
	return out
}
