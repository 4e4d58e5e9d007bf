// Package cluster assembles the DrTM runtime: N logical nodes in one
// process, each with its own HTM engine, softtime clock, memory-store
// shards, NVRAM logs and worker contexts, connected by the simulated RDMA
// fabric. This mirrors the paper's deployment (and its own scale-out
// emulation, which runs multiple logical nodes per machine, Section 7.2).
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drtm/internal/clock"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

// Config describes a cluster.
type Config struct {
	Nodes          int
	WorkersPerNode int

	HTM       htm.Config
	Model     vtime.Model
	Atomicity rdma.AtomicityLevel

	// Lease durations (Section 4.2): the paper fixes 0.4 ms for read-write
	// transactions and 1.0 ms for read-only transactions.
	LeaseMicros   uint64
	ROLeaseMicros uint64

	// Softtime deployment (Section 6.1); the nodes' skew is skewBound.
	SofttimeInterval time.Duration
	Strategy         clock.Strategy

	// Durability (Section 4.6): when true, transactions write chopping,
	// lock-ahead and write-ahead logs to emulated NVRAM.
	Durability bool

	// LogWords caps each of a worker's NVRAM logs: the words of records one
	// log may hold before its owner reclaims them, not an allocation. A log
	// starts at nvram.InitialWords and is restarted at transaction boundaries
	// (package tx), so only a worker kept from reclaiming — a zombie, whose
	// own machine is down — comes near the cap; overrunning it is fatal.
	LogWords int

	// FailureDetection enables lease-based membership: heartbeat renewal,
	// expiry detection, probe confirmation and coordinator election (see
	// membership.go). Off, crashes are only visible through verb errors.
	FailureDetection bool

	// ReplicationFactor is the number of backups per partition (FaRM-style
	// primary–backup replication, see replication.go). 0 disables
	// replication; crashes are then handled by full NVRAM-replay recovery.
	ReplicationFactor int
}

// skewBound bounds a node's softtime skew: New spreads the nodes' skews
// across [-skewBound, +skewBound], and Delta allows for it.
const skewBound = 50 * time.Microsecond

// DefaultConfig mirrors the paper's settings on a cluster of n nodes with
// w workers each.
func DefaultConfig(n, w int) Config {
	return Config{
		Nodes:            n,
		WorkersPerNode:   w,
		HTM:              htm.DefaultConfig(),
		Model:            vtime.DefaultModel(),
		Atomicity:        rdma.AtomicHCA,
		LeaseMicros:      400,
		ROLeaseMicros:    1000,
		SofttimeInterval: 200 * time.Microsecond,
		Strategy:         clock.StrategyReuseConfirm,
		LogWords:         1 << 20,
	}
}

// Cluster is the assembled system.
type Cluster struct {
	cfg    Config
	Fabric *rdma.Fabric
	nodes  []*Node

	// Obs is the deployment-wide observability registry: one shard per
	// worker (shard index = node*WorkersPerNode + worker).
	Obs *obs.Registry

	// membership is the shared liveness-lease arena (see membership.go).
	// Layout: [0, Nodes) heartbeat words, [Nodes, 2*Nodes) coordinator
	// words, [2*Nodes, 3*Nodes) per-partition packed view words.
	membership *memory.Arena
	detectors  []*detector
	detStop    chan struct{}
	detWG      sync.WaitGroup

	// views mirrors the membership view words for lock-free hot-path
	// routing; redoSinks[host][sender][worker] are the backup redo logs.
	// Both are nil when ReplicationFactor == 0.
	views     []atomic.Uint64
	redoSinks [][][]*RedoSink
	// redoApply applies one drained redo record to a host's replica shards
	// (HandleRedoDrain); nil until the transaction runtime installs it.
	redoApply func(host int, rec []uint64)

	deathMu sync.Mutex
	onDeath func(coordinator, crashed int)
}

// Node is one logical machine.
type Node struct {
	ID     int
	Engine *htm.Engine
	Clock  *clock.SoftClock

	unordered map[int]*kvs.Table
	ordered   map[int]*kvs.Ordered

	handlers map[int]rdma.Handler

	workers []*Worker
	alive   atomic.Bool
}

// Worker is a worker thread's context: its queue pair, virtual clock,
// latency histogram and NVRAM logs. Each worker executes one transaction
// at a time, as in the paper.
type Worker struct {
	Node   *Node
	ID     int // node-local worker index
	QP     *rdma.QP
	VClock *vtime.Clock
	Hist   *vtime.Histogram

	// Obs is this worker's observability shard; the transaction layer and
	// the worker's QP both record protocol events into it.
	Obs *obs.Shard

	// Per-worker NVRAM logs (Section 4.6).
	ChoppingLog   *nvram.Log
	LockAheadLog  *nvram.Log
	WriteAheadLog *nvram.Log
}

// Delta returns the cluster's lease clock-uncertainty bound in microseconds.
func (c *Cluster) Delta() uint64 {
	return clock.Delta(c.cfg.SofttimeInterval, skewBound)
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// New builds a cluster. Per-node softtime skew is spread deterministically
// across [-skewBound, +skewBound].
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.WorkersPerNode <= 0 {
		panic("cluster: need at least one node and one worker")
	}
	if cfg.LogWords <= 0 {
		cfg.LogWords = 1 << 20
	}
	if cfg.ReplicationFactor < 0 || cfg.ReplicationFactor >= cfg.Nodes {
		panic("cluster: ReplicationFactor must be in [0, Nodes)")
	}
	c := &Cluster{
		cfg:        cfg,
		Fabric:     rdma.NewFabric(cfg.Nodes, cfg.Model, cfg.Atomicity),
		Obs:        obs.NewRegistry(cfg.Nodes * cfg.WorkersPerNode),
		membership: memory.NewArena(membershipArenaID, 3*cfg.Nodes),
	}
	if cfg.ReplicationFactor > 0 {
		c.views = make([]atomic.Uint64, cfg.Nodes)
		for p := 0; p < cfg.Nodes; p++ {
			v := PackView(0, p)
			c.membership.UnsafeInit(c.viewOff(p), []uint64{v})
			c.views[p].Store(v)
		}
		c.initReplication()
	}
	for i := 0; i < cfg.Nodes; i++ {
		skew := time.Duration(0)
		if cfg.Nodes > 1 {
			frac := float64(i)/float64(cfg.Nodes-1)*2 - 1 // -1 .. +1
			skew = time.Duration(frac * float64(skewBound))
		}
		n := &Node{
			ID:        i,
			Engine:    htm.NewEngine(cfg.HTM),
			Clock:     clock.NewSoftClock(1000+i, cfg.SofttimeInterval, skew),
			unordered: make(map[int]*kvs.Table),
			ordered:   make(map[int]*kvs.Ordered),
			handlers:  make(map[int]rdma.Handler),
		}
		n.alive.Store(true)
		for w := 0; w < cfg.WorkersPerNode; w++ {
			vc := &vtime.Clock{}
			wk := &Worker{
				Node:   n,
				ID:     w,
				QP:     c.Fabric.NewQP(i, vc),
				VClock: vc,
				Hist:   vtime.NewHistogram(),
				Obs:    c.Obs.Shard(i*cfg.WorkersPerNode + w),
			}
			wk.QP.Obs = wk.Obs
			if cfg.Durability {
				wk.ChoppingLog = nvram.NewLog(i*1000+w*3+0, cfg.LogWords)
				wk.LockAheadLog = nvram.NewLog(i*1000+w*3+1, cfg.LogWords)
				wk.WriteAheadLog = nvram.NewLog(i*1000+w*3+2, cfg.LogWords)
				for _, l := range []*nvram.Log{wk.ChoppingLog, wk.LockAheadLog, wk.WriteAheadLog} {
					l.Obs = wk.Obs
				}
			}
			n.workers = append(n.workers, wk)
		}
		c.nodes = append(c.nodes, n)
		c.Fabric.Serve(i, n.dispatch)
		// Every node reaches the membership service through its own
		// endpoint; the service itself never fails in this model.
		c.Fabric.Register(i, RegionMembership, c.membership)
	}
	return c
}

// Start launches every node's softtime timer thread and, when failure
// detection is configured, the per-node membership detectors.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n.Clock.Start()
	}
	if c.cfg.FailureDetection && c.detStop == nil {
		c.detStop = make(chan struct{})
		for i := 0; i < c.cfg.Nodes; i++ {
			d := newDetector(c, i)
			c.detectors = append(c.detectors, d)
			c.detWG.Add(1)
			go d.run(c.detStop)
		}
	}
}

// Stop terminates timer threads and membership detectors.
func (c *Cluster) Stop() {
	if c.detStop != nil {
		close(c.detStop)
		c.detWG.Wait()
		c.detStop = nil
		c.detectors = nil
	}
	for _, n := range c.nodes {
		n.Clock.Stop()
	}
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Workers returns all workers across alive nodes.
func (c *Cluster) Workers() []*Worker {
	var out []*Worker
	for _, n := range c.nodes {
		if n.alive.Load() {
			out = append(out, n.workers...)
		}
	}
	return out
}

// Worker returns worker w of node n.
func (c *Cluster) Worker(n, w int) *Worker { return c.nodes[n].workers[w] }

// RegisterUnordered creates a shard of an unordered (hash) table on every copy
// of every partition (Copies) and registers its arena on the fabric under the
// copy's region: the table ID on the home, the partition's replica region on
// each backup, so the promote path flips ownership to the replica without
// moving any data. At f = 0 that is one shard per node.
func (c *Cluster) RegisterUnordered(tableID, mainBuckets, indirectBuckets, capacity, valueWords int) {
	var copies []int
	for p := range c.nodes {
		copies = c.Copies(copies[:0], p)
		for _, node := range copies {
			n, region := c.nodes[node], CopyRegion(p, tableID, node)
			t := kvs.New(kvs.Config{
				Node: node, RegionID: region,
				MainBuckets: mainBuckets, IndirectBuckets: indirectBuckets,
				Capacity: capacity, ValueWords: valueWords,
			}, n.Engine)
			n.unordered[region] = t
			c.Fabric.Register(node, region, t.Arena())
		}
	}
}

// RegisterOrdered creates a shard of an ordered (B+ tree) table on every copy
// of every partition, as RegisterUnordered does. Record entries are
// fabric-registered like hash-table entries: point accesses resolve the entry
// offset through the host's index (a shipped lookup when remote), then
// lock/fetch/write-back the entry one-sided exactly like unordered records;
// only structural index changes are two-sided. On a replica shard value
// updates ride the redo stream and structural changes are mirrored
// synchronously (tx layer), so a promotion serves the tree without moving
// data.
func (c *Cluster) RegisterOrdered(tableID, capacity, valueWords int, segShift uint) {
	var copies []int
	for p := range c.nodes {
		copies = c.Copies(copies[:0], p)
		for _, node := range copies {
			n, region := c.nodes[node], CopyRegion(p, tableID, node)
			o := kvs.NewOrdered(kvs.OrderedConfig{
				Node: node, RegionID: region,
				Capacity: capacity, ValueWords: valueWords, SegShift: segShift,
			}, n.Engine)
			n.ordered[region] = o
			c.Fabric.Register(node, region, o.Arena())
		}
	}
}

// Unordered returns node n's shard of hash table tableID.
func (n *Node) Unordered(tableID int) *kvs.Table {
	t, ok := n.unordered[tableID]
	if !ok {
		panic(fmt.Sprintf("cluster: node %d has no unordered table %d", n.ID, tableID))
	}
	return t
}

// Ordered returns node n's shard of ordered table tableID.
func (n *Node) Ordered(tableID int) *kvs.Ordered {
	o, ok := n.ordered[tableID]
	if !ok {
		panic(fmt.Sprintf("cluster: node %d has no ordered table %d", n.ID, tableID))
	}
	return o
}

// OrderedRegion returns node n's ordered shard for a storage region — a
// primary shard or a replica shard (CopyRegion) — and whether the node hosts
// one under it.
func (n *Node) OrderedRegion(region int) (*kvs.Ordered, bool) {
	o, ok := n.ordered[region]
	return o, ok
}

// EachEntry calls fn with the region, arena and offset of every entry slot
// handed out so far in every region the node hosts, primary and replica, hash
// and ordered.
func (n *Node) EachEntry(fn func(region int, a *memory.Arena, off memory.Offset)) {
	for region, t := range n.unordered {
		t.EachEntry(func(off memory.Offset) { fn(region, t.Arena(), off) })
	}
	for region, o := range n.ordered {
		o.EachEntry(func(off memory.Offset) { fn(region, o.Arena(), off) })
	}
}

// Handle registers a verbs message handler for a message type on this node.
// Must be called before traffic starts.
func (n *Node) Handle(msgType int, h rdma.Handler) { n.handlers[msgType] = h }

// Msg is the envelope for two-sided verbs messages.
type Msg struct {
	Type int
	Body any
}

func (n *Node) dispatch(from int, req any) any {
	var m Msg
	switch r := req.(type) {
	case Msg:
		m = r
	case *Msg: // a sender's reused envelope: nothing boxed per call
		m = *r
	default:
		return fmt.Errorf("cluster: node %d got non-Msg request %T", n.ID, req)
	}
	h, ok := n.handlers[m.Type]
	if !ok {
		return fmt.Errorf("cluster: node %d has no handler for msg type %d", n.ID, m.Type)
	}
	return h(from, m.Body)
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive.Load() }

// Crash fail-stops a node: its endpoint becomes unreachable on the fabric
// (verbs fail with ErrNodeUnreachable), its heartbeats stop, its softtime
// timer dies, and its workers must observe Alive() == false and stop
// issuing work. Its NVRAM logs remain readable (flush-on-failure).
// Nobody is notified: survivors learn of the crash through lease expiry.
func (c *Cluster) Crash(node int) {
	n := c.nodes[node]
	if !n.alive.CompareAndSwap(true, false) {
		return
	}
	c.Fabric.SetNodeDown(node, true)
	n.Clock.Stop()
}

// Revive brings a crashed node back (after recovery completes): its
// coordinator word is cleared for future elections, its heartbeat resumes
// from a fresh value, its endpoint rejoins the fabric and its softtime
// timer restarts.
func (c *Cluster) Revive(node int) {
	n := c.nodes[node]
	if n.alive.Load() {
		return
	}
	// The endpoint rejoins the fabric BEFORE the coordinator word clears:
	// a straggling election candidate that CASes the freshly cleared word
	// then sees its post-win probe succeed and withdraws the stale claim.
	c.Fabric.SetNodeDown(node, false)
	c.membership.StoreWord(c.coordOff(node), 0)
	c.membership.FAA(hbOff(node), 1) // visibly fresh before monitors resume
	n.Clock.Restart()
	n.alive.Store(true)
}
