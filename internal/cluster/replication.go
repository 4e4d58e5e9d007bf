package cluster

import (
	"fmt"
	"sync"

	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// FaRM-style primary–backup replication (commit-backup protocol).
//
// Placement is deterministic: partition p (partitions coincide with node IDs
// in this codebase) is backed up by the f nodes that follow it in ring
// order, Backups(p) = {p+1, ..., p+f} mod N. Each backup hosts a full
// replica shard of every table of the partitions it backs up, registered on
// the fabric under a replica region of its own so the existing one-sided verb
// paths address replica entries exactly like primary entries. This file is
// the one place that names a partition's copies: Copies lists the nodes that
// hold one, CopyRegion the region a copy occupies on its node, and Serving
// the copy that serves the partition under the routing view.
//
// Commit durability is one-sided: after a transaction's HTM region commits,
// its write-set is appended as one redo record (nvram.EncodeRedo) to a redo
// log on every backup of every touched partition — RDMA log-append WRITEs
// pushed through the async verb engine, one wave, acked by polling, before
// locks release. That record is the commit record: no write-ahead record is
// kept beside it. Redo logs are per (host, sender node, sender worker), so
// each log has exactly one appending worker and appends never contend. A log
// is truncated lazily, by the append that would take it past CheckpointWords
// when its sender vouches that every earlier record is home (RemoteAppend).
//
// View epochs make failover safe. Partition p's view is one packed word
// (epoch<<8 | owner) in the membership arena; promotion CASes it to
// (epoch+1, backup). Appenders stamp every redo update with the epoch they
// observed; the backup's log sink rejects records carrying a stale epoch
// (ErrFenced), which fences a zombie ex-primary's late appends — the
// one-sided analogue of FaRM's configuration check on log processing.

// Packed view word layout: low 8 bits owner node, high bits epoch.
const viewOwnerBits = 8

// PackView packs a partition view word.
func PackView(epoch uint64, owner int) uint64 {
	return epoch<<viewOwnerBits | uint64(owner)
}

// ViewOwner extracts the owning node from a packed view word.
func ViewOwner(w uint64) int { return int(w & (1<<viewOwnerBits - 1)) }

// ViewEpoch extracts the epoch from a packed view word.
func ViewEpoch(w uint64) uint64 { return w >> viewOwnerBits }

// Replica table regions: replicaRegion(p, t) addresses the replica shard of
// partition p's table t on whichever backup hosts it. The base keeps these
// IDs disjoint from plain table IDs (small ints) and the membership region
// (1<<30).
const (
	replicaRegionBase   = 1 << 24
	replicaRegionStride = 1 << 16 // max tables per partition
)

func replicaRegion(p, table int) int {
	return replicaRegionBase + p*replicaRegionStride + table
}

// CopyRegion returns the fabric/table region partition p's table occupies on
// node: the table itself on p's home, the replica region on a backup.
func CopyRegion(p, table, node int) int {
	if node == p {
		return table
	}
	return replicaRegion(p, table)
}

// RegionTable decodes a table's storage region: the table, and the partition
// whose replica the region is (-1 for a primary region, whose ID is the table).
func RegionTable(region int) (part, table int) {
	if region < replicaRegionBase {
		return -1, region
	}
	r := region - replicaRegionBase
	return r / replicaRegionStride, r % replicaRegionStride
}

// Redo log regions: RedoLogRegion(s, w) on host b is the redo log that
// sender worker (s, w) appends to on b.
const (
	redoLogRegionBase   = 1 << 29
	redoLogWorkerStride = 256
)

// RedoLogRegion returns the fabric region ID of the redo log a sender
// worker appends to (the same ID on every backup host).
func RedoLogRegion(sender, worker int) int {
	return redoLogRegionBase + sender*redoLogWorkerStride + worker
}

// redoLogWords sizes each redo ring; CheckpointWords is the used space past
// which an append whose sender's earlier records are home first applies them
// to the host's replicas and truncates them. Short tails are the whole point
// of hot failover: promotion replays only this much instead of a full NVRAM
// WAL.
const (
	redoLogWords    = 1 << 16
	CheckpointWords = 1 << 10
)

// RedoSink is one backup-hosted redo log plus its view-epoch fence. It is
// the fabric LogSink for its region: RemoteAppend runs on the appending
// worker's goroutine at WR completion time (one-sided discipline). The
// mutex orders appends against promotion's drain — promotion bumps the view
// epoch before draining, so any append that enters after the drain started
// is fenced, and any append that entered before is observed by the drain.
type RedoSink struct {
	c    *Cluster
	host int
	sh   *obs.Shard

	mu   sync.Mutex
	log  *nvram.Log
	scan []uint64 // Drain's record buffer, reused from drain to drain
}

// RemoteAppend implements rdma.LogSink: fence, then ring append. The record
// is read in place; nothing of it outlives the call but the ring's copy.
//
// When the record carries the home bit (nvram.MarkRedoHome) and would take the
// ring past CheckpointWords, the ring's earlier records are first applied to
// this host's replica shards and truncated — FaRM's lazy truncation, riding
// the next append instead of a message of its own. A host drops the updates
// of partitions it does not back up; the home bit is what makes that safe, as
// every one of them is on its primary by then — a dead primary's memory
// included, where it was written at once (tx.Runtime.runOnDead) — and held by
// that partition's own backups. A sender sets the bit only once
// its release chains have landed, and waits for them before the words it
// appended here since its last home record would pass CheckpointWords
// (tx.appendRedo), so while it is alive a ring is bounded by CheckpointWords
// plus those words — under 2 × CheckpointWords. The lock order is this sink's
// lock, then the partitions' redo locks the apply takes.
func (s *RedoSink) RemoteAppend(from int, rec []uint64) error {
	it, ok := nvram.IterRedo(rec)
	if !ok {
		return fmt.Errorf("cluster: malformed redo record from node %d", from)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for u, more := it.Next(); more; u, more = it.Next() {
		if u.Epoch < ViewEpoch(s.c.MembershipView(u.Part)) {
			s.sh.Inc(obs.EvFenceReject)
			return rdma.ErrFenced
		}
	}
	if apply := s.c.redoApply; apply != nil && nvram.RedoHome(rec) &&
		s.log.BytesUsed()+(1+len(rec))*8 >= CheckpointWords*8 {
		s.sh.Add(obs.EvRingDrain, int64(s.drainLocked(func(r []uint64) { apply(s.host, r) })))
	}
	if !s.log.Append(rec) {
		// Logs are sized so the truncation threshold is met long before the
		// ring fills; overflowing one is a configuration error, like the WAL.
		panic(fmt.Sprintf("cluster: redo log on node %d overflowed", s.host))
	}
	return nil
}

// Drain applies every record currently in the log through fn (in append
// order) and truncates, all under the sink's append lock. Returns the
// number of records drained. Used by promotion's redo-tail replay. rec lives
// in the sink's scan buffer and is valid only until fn returns.
func (s *RedoSink) Drain(fn func(rec []uint64)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked(fn)
}

func (s *RedoSink) drainLocked(fn func(rec []uint64)) int {
	var n int
	n, s.scan = s.log.Scan(s.scan, fn)
	s.log.Truncate()
	return n
}

// BytesUsed returns the ring's current payload footprint.
func (s *RedoSink) BytesUsed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.BytesUsed()
}

// initReplication builds the replica shards' containers, the view words and
// the redo logs. Called from New when ReplicationFactor > 0.
func (c *Cluster) initReplication() {
	cfg := c.cfg
	c.redoSinks = make([][][]*RedoSink, cfg.Nodes)
	for b := 0; b < cfg.Nodes; b++ {
		c.redoSinks[b] = make([][]*RedoSink, cfg.Nodes)
		for s := 0; s < cfg.Nodes; s++ {
			c.redoSinks[b][s] = make([]*RedoSink, cfg.WorkersPerNode)
			for w := 0; w < cfg.WorkersPerNode; w++ {
				log := nvram.NewLog(redoArenaID(b, s, w), redoLogWords)
				sink := &RedoSink{
					c: c, host: b, log: log,
					sh: c.Obs.Shard(b * cfg.WorkersPerNode),
				}
				c.redoSinks[b][s][w] = sink
				region := RedoLogRegion(s, w)
				c.Fabric.RegisterLogSink(b, region, sink)
				// Durable NVRAM: a backup's redo tail stays readable if the
				// backup itself later crashes. The region names the ring's
				// first arena, which a ring drained at CheckpointWords — an
				// eighth of nvram.InitialWords — does not outgrow unless its
				// truncations stall; nothing READs the region today, and a
				// reader would have to follow log.Arena() across a grow.
				c.Fabric.RegisterDurable(b, region, log.Arena())
			}
		}
	}
}

// redoArenaID derives a memory arena ID for a redo log, disjoint from the
// worker NVRAM logs (node*1000+...), the membership arena (1<<21) and every
// table region.
func redoArenaID(host, sender, worker int) int {
	return 1<<22 + (host*256+sender)*256 + worker
}

// ReplicationFactor returns the configured backup count per partition.
func (c *Cluster) ReplicationFactor() int { return c.cfg.ReplicationFactor }

// Backups appends partition p's backup nodes (ring successors) to dst and
// returns it. Empty when replication is off.
func (c *Cluster) Backups(dst []int, p int) []int {
	for i := 1; i <= c.cfg.ReplicationFactor; i++ {
		dst = append(dst, (p+i)%c.cfg.Nodes)
	}
	return dst
}

// Copies appends the nodes holding partition p's copies to dst and returns
// it: p's home first, then its backups in rank order. At f = 0 that is the
// home alone.
func (c *Cluster) Copies(dst []int, p int) []int {
	return c.Backups(append(dst, p), p)
}

// Serving returns the copy that serves partition p's table under the routing
// view: its owner, and the region the table occupies there — the home's table
// until a promotion, the promoted backup's replica region after.
func (c *Cluster) Serving(p, table int) (node, region int) {
	node = c.OwnerOf(p)
	return node, CopyRegion(p, table, node)
}

// IsBackup reports whether node b is one of partition p's backups (a ring
// successor within the replication factor).
func (c *Cluster) IsBackup(b, p int) bool {
	d := (b - p + c.cfg.Nodes) % c.cfg.Nodes
	return d >= 1 && d <= c.cfg.ReplicationFactor
}

// viewOff is the membership-arena word holding partition p's packed view.
func (c *Cluster) viewOff(p int) memory.Offset {
	return memory.Offset(2*c.cfg.Nodes + p)
}

// View returns partition p's packed view word (hot-path mirror read).
func (c *Cluster) View(p int) uint64 {
	if c.views == nil {
		return PackView(0, p)
	}
	return c.views[p].Load()
}

// OwnerOf returns the node currently owning partition p.
func (c *Cluster) OwnerOf(p int) int { return ViewOwner(c.View(p)) }

// MembershipView returns partition p's view word as the membership service
// holds it. It runs ahead of View between TryPromote and PublishView: the log
// sinks fence by it, and redo application targets its owner, while
// transactions still route by the mirror.
func (c *Cluster) MembershipView(p int) uint64 {
	if c.views == nil {
		return PackView(0, p)
	}
	return c.membership.LoadWord(c.viewOff(p))
}

// TryPromote CASes partition p's view from (epoch, p-owned) to (epoch+1,
// newOwner) — the atomic ownership handover of hot failover. It fails (ok
// false) when the partition is no longer owned by its home node, i.e. a
// concurrent promotion already happened, making a second promote of the
// same crash a no-op. The CAS runs on the membership arena directly: the
// membership service is external to every node and does not fail in this
// model, and CPU CAS gives racing coordinators mutual atomicity.
//
// The handover has two steps. The CAS fences: from it on the log sinks
// reject appends stamped with the old epoch, so the redo tails the caller
// drains next are complete. Transactions keep routing to the dead home — the
// partition is unavailable — until the caller, with the tails replayed into
// the replica, makes the new view visible to them with PublishView. Routing
// to the replica any earlier lets a transaction commit on a row whose newer
// version is still in a tail, and the version-guarded replay then skips that
// row but applies the rest of its commit.
func (c *Cluster) TryPromote(p, newOwner int) (newView uint64, ok bool) {
	old := c.membership.LoadWord(c.viewOff(p))
	if ViewOwner(old) != p {
		return old, false
	}
	nv := PackView(ViewEpoch(old)+1, newOwner)
	if _, won := c.membership.CAS(c.viewOff(p), old, nv); !won {
		return c.membership.LoadWord(c.viewOff(p)), false
	}
	return nv, true
}

// PublishView makes the view a successful TryPromote returned visible on the
// hot path: the partition serves from its new owner. Transactions that staged
// against the old view abort on the in-region view confirmation and restage.
func (c *Cluster) PublishView(p int, view uint64) { c.views[p].Store(view) }

// HandleRedoDrain installs how a drained redo record is applied to a host's
// replica shards (the transaction runtime's, as it installs its message
// handlers). Until it is installed no append truncates a ring.
func (c *Cluster) HandleRedoDrain(apply func(host int, rec []uint64)) { c.redoApply = apply }

// RedoSinkAt returns the redo log on host that sender worker (sender, w)
// appends to. Panics when replication is off.
func (c *Cluster) RedoSinkAt(host, sender, w int) *RedoSink {
	return c.redoSinks[host][sender][w]
}
