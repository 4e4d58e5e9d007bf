// Package tatp implements a TATP-style telecom workload (Neuvonen et al.,
// the "Telecommunication Application Transaction Processing" benchmark) over
// DrTM's ordered tables and secondary indexes: index-heavy point lookups
// (UPDATE_LOCATION resolves subscribers by phone number through the sub_nbr
// secondary index), short range scans over composite keys, and a
// subscriber-lifecycle insert/delete mix that exercises the transactional
// WInsert/Erase machinery.
//
// The schema is the benchmark's, compressed into word values:
//
//	SUBSCRIBER       key s_id            val [sub_nbr, sf_mask, msc_location]
//	SPECIAL_FACILITY key s_id<<8|sf_type val [is_active, data_a]
//	CALL_FORWARDING  key s_id<<16|sf_type<<8|start val [end_time, numberx]
//	SUB_NBR index    key sub_nbr         val [s_id]   (declared secondary index)
//
// Composite keys put the subscriber ID in the high bits, so one subscriber's
// facility and forwarding rows co-locate on its partition and range scans of
// them are single-node; the tables' segment shifts (8 and 16) make the
// phantom stamps per-subscriber, so unrelated subscribers' inserts never
// invalidate a scan. sub_nbr is an invertible mix of s_id, which lets the
// partitioner co-locate every index entry with its base row — the contract
// secondary-index maintenance requires.
//
// The consistency invariant (checked by CheckSubscriberRO live under
// traffic, and by Audit at quiesce): every live subscriber's sf_mask bit t
// is set iff the SPECIAL_FACILITY row s_id<<8|t is live, and the sub_nbr
// index row set equals exactly the live subscriber set. Both sides of each
// equivalence always change in one transaction, so any observable divergence
// is an atomicity bug.
package tatp

import (
	"fmt"
	"math/rand"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/tx"
)

// Table IDs.
const (
	TableSubscriber      = 20
	TableSpecialFacility = 21
	TableCallForwarding  = 22
	TableSubNbrIndex     = 23
)

// Facility types are 1..4 (benchmark convention).
const NumSFTypes = 4

// subNbrMul is an odd 64-bit mixing constant; sub_nbr = s_id * subNbrMul is
// a bijection on uint64, inverted with subNbrInv so the partitioner can
// route an index key to its base row's home.
const subNbrMul = 0x9E3779B97F4A7C15

var subNbrInv uint64

func init() {
	// Newton's iteration for the multiplicative inverse mod 2^64.
	inv := uint64(subNbrMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - subNbrMul*inv
	}
	if subNbrMul*inv != 1 {
		panic("tatp: bad sub_nbr inverse")
	}
	subNbrInv = inv
}

// SubNbr returns subscriber s's phone number (the indexed attribute).
func SubNbr(sid uint64) uint64 { return sid * subNbrMul }

// SidOfSubNbr inverts SubNbr.
func SidOfSubNbr(nbr uint64) uint64 { return nbr * subNbrInv }

// Key encodings.
func SFKey(sid uint64, sfType int) uint64 { return sid<<8 | uint64(sfType) }
func CFKey(sid uint64, sfType, start int) uint64 {
	return sid<<16 | uint64(sfType)<<8 | uint64(start)
}

// Config sizes the workload.
type Config struct {
	Nodes       int
	Subscribers int // total s_id space: 1..Subscribers
}

// DefaultConfig returns a small-but-contended sizing.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Subscribers: 64 * nodes}
}

// NodeOf returns a subscriber's home node.
func (c Config) NodeOf(sid uint64) int { return int(sid) % c.Nodes }

// Partitioner routes every table by the owning subscriber, co-locating a
// subscriber's facility rows, forwarding rows and index entry with it.
func (c Config) Partitioner() tx.Partitioner {
	return func(table int, key uint64) int {
		return c.NodeOf(c.sidOf(table, key))
	}
}

func (c Config) sidOf(table int, key uint64) uint64 {
	switch table {
	case TableSubscriber:
		return key
	case TableSpecialFacility:
		return key >> 8
	case TableCallForwarding:
		return key >> 16
	case TableSubNbrIndex:
		return SidOfSubNbr(key)
	default:
		panic(fmt.Sprintf("tatp: unknown table %d", table))
	}
}

// Workload owns the populated tables.
type Workload struct {
	Cfg Config
	rt  *tx.Runtime
}

// Setup defines the tables and the sub_nbr index on an existing runtime
// (whose partitioner must be cfg.Partitioner()) and inserts every
// subscriber with a deterministic initial facility mask.
//
// Each shard is sized for its partition, p subscribers: a subscriber key has
// at most one tree entry (EnsureDead reuses a dead one), and the 64 spare
// slots cover entries racing inserters prepare and then give back.
// SPECIAL_FACILITY holds the partition's whole key space. CALL_FORWARDING
// holds 8 rows per subscriber: the mix settles near 23 (its rows outlive their
// subscriber), so a long enough run of a large population outgrows it, and a
// caller that runs one caps its transactions (as the repo benchmark does).
func Setup(rt *tx.Runtime, cfg Config) (*Workload, error) {
	p := (cfg.Subscribers+cfg.Nodes-1)/cfg.Nodes + 64
	rt.DefineOrderedSeg(TableSubscriber, p, 3, 0)
	rt.DefineOrderedSeg(TableSpecialFacility, NumSFTypes*p, 2, 8)
	rt.DefineOrderedSeg(TableCallForwarding, 8*p, 2, 16)
	rt.DefineOrderedSeg(TableSubNbrIndex, p, 1, 0)
	rt.DefineIndex(TableSubscriber, tx.IndexSpec{
		Table: TableSubNbrIndex,
		Key:   func(baseKey uint64, val []uint64) uint64 { return val[0] },
	})
	w := &Workload{Cfg: cfg, rt: rt}
	for s := uint64(1); s <= uint64(cfg.Subscribers); s++ {
		mask := initialMask(s)
		if err := w.loadSubscriber(s, mask); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// initialMask deterministically assigns each subscriber 1..4 facilities
// (bits 1..4 of sf_mask).
func initialMask(sid uint64) uint64 { return (sid*7%15 + 1) << 1 }

// loadSubscriber bulk-inserts one subscriber and its facility and index
// rows directly on every copy of its partition: the home shard and every
// backup's replica shard.
func (w *Workload) loadSubscriber(sid, mask uint64) error {
	part := w.Cfg.NodeOf(sid)
	for _, node := range w.rt.C.Copies(nil, part) {
		n := w.rt.C.Node(node)
		shard := func(table int) *kvs.Ordered { return n.Ordered(cluster.CopyRegion(part, table, node)) }
		if err := shard(TableSubscriber).Insert(sid, []uint64{SubNbr(sid), mask, 0}); err != nil {
			return fmt.Errorf("tatp: load subscriber %d: %w", sid, err)
		}
		if err := shard(TableSubNbrIndex).Insert(SubNbr(sid), []uint64{sid}); err != nil {
			return fmt.Errorf("tatp: load index %d: %w", sid, err)
		}
		sf := shard(TableSpecialFacility)
		for t := 1; t <= NumSFTypes; t++ {
			if mask&(1<<uint(t)) == 0 {
				continue
			}
			if err := sf.Insert(SFKey(sid, t), []uint64{1, sid}); err != nil {
				return fmt.Errorf("tatp: load sf %d/%d: %w", sid, t, err)
			}
		}
	}
	return nil
}

// Client issues TATP transactions from one worker.
type Client struct {
	w   *Workload
	e   *tx.Executor
	rng *rand.Rand
	// Counts of committed ops by name.
	Counts map[string]int64
	// row is the SUBSCRIBER row the update bodies hand to Local.Write and
	// InsertSubscriber to Stage, sf the SPECIAL_FACILITY row the two inserting
	// types stage: one array each per client instead of one slice per
	// transaction. Both callees copy, and a transaction's rows outlive it in no
	// other way.
	row [3]uint64
	sf  [2]uint64
}

// NewClient binds a client to an executor.
func (w *Workload) NewClient(e *tx.Executor, seed int64) *Client {
	return &Client{w: w, e: e, rng: rand.New(rand.NewSource(seed)), Counts: map[string]int64{}}
}

func (c *Client) pick() uint64 {
	return uint64(c.rng.Intn(c.w.Cfg.Subscribers)) + 1
}

// RunOne draws and executes one transaction from the mix. ErrNotFound and
// ErrExists outcomes are benign races of the lifecycle mix, not failures.
func (c *Client) RunOne() error {
	sid := c.pick()
	var name string
	var err error
	switch r := c.rng.Intn(100); {
	case r < 30:
		name, err = "get-subscriber", c.GetSubscriberData(sid)
	case r < 45:
		name, err = "get-new-destination", c.GetNewDestination(sid, 1+c.rng.Intn(NumSFTypes))
	case r < 60:
		name, err = "update-location", c.UpdateLocation(SubNbr(sid), uint64(c.rng.Intn(1<<16)))
	case r < 72:
		name, err = "toggle-facility", c.ToggleSpecialFacility(sid, 1+c.rng.Intn(NumSFTypes))
	case r < 82:
		name, err = "insert-call-fwd", c.InsertCallForwarding(sid, 1+c.rng.Intn(NumSFTypes), c.rng.Intn(24))
	case r < 90:
		name, err = "delete-call-fwd", c.DeleteCallForwarding(sid, 1+c.rng.Intn(NumSFTypes), c.rng.Intn(24))
	case r < 95:
		name, err = "delete-subscriber", c.DeleteSubscriber(sid)
	default:
		name, err = "insert-subscriber", c.InsertSubscriber(sid, (uint64(c.rng.Intn(15))+1)<<1)
	}
	if err == nil {
		c.Counts[name]++
	}
	return err
}

// GetSubscriberData is the RO point read (35% of classic TATP).
func (c *Client) GetSubscriberData(sid uint64) error {
	err := c.e.ExecRO(func(ro *tx.RO) error {
		_, err := ro.Read(TableSubscriber, sid)
		return err
	})
	if err == tx.ErrNotFound {
		return nil
	}
	return err
}

// GetNewDestination scans the subscriber's live forwarding rows for one
// facility type (an RO range scan over the composite-key table).
func (c *Client) GetNewDestination(sid uint64, sfType int) error {
	err := c.e.ExecRO(func(ro *tx.RO) error {
		_, err := ro.Scan(TableCallForwarding,
			CFKey(sid, sfType, 0), CFKey(sid, sfType, 0xFF), 0)
		return err
	})
	return err
}

// UpdateLocation resolves the subscriber through the sub_nbr secondary
// index transactionally, then updates msc_location — the index-heavy
// point-lookup path TATP is known for.
func (c *Client) UpdateLocation(subNbr, loc uint64) error {
	sid := SidOfSubNbr(subNbr)
	err := c.e.Exec(func(t *tx.Tx) error {
		if err := t.Stage(
			tx.Access{Table: TableSubNbrIndex, Key: subNbr},
			tx.Access{Table: TableSubscriber, Key: sid, Write: true},
		); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			ix, err := lc.Read(TableSubNbrIndex, subNbr)
			if err != nil {
				return err
			}
			if ix[0] != sid {
				return fmt.Errorf("tatp: index row %#x resolves to %d, want %d", subNbr, ix[0], sid)
			}
			v, err := lc.Read(TableSubscriber, sid)
			if err != nil {
				return err
			}
			c.row = [3]uint64{v[0], v[1], loc}
			return lc.Write(TableSubscriber, sid, c.row[:])
		})
	})
	if err == tx.ErrNotFound {
		return nil // subscriber deleted under us: benign
	}
	return err
}

// ToggleSpecialFacility flips facility sfType for the subscriber: the
// sf_mask bit on the SUBSCRIBER row and the SPECIAL_FACILITY row's
// existence change in ONE transaction — the invariant the checker audits.
func (c *Client) ToggleSpecialFacility(sid uint64, sfType int) error {
	bit := uint64(1) << uint(sfType)
	key := SFKey(sid, sfType)
	err := c.e.Exec(func(t *tx.Tx) error {
		// Try to add the facility row; ErrExists means it is live, so this
		// transaction drops it instead (declaring the subscriber row again is
		// free if the first batch got as far as staging it).
		sub := tx.Access{Table: TableSubscriber, Key: sid, Write: true}
		drop := false
		c.sf = [2]uint64{1, sid}
		if err := t.Stage(sub, tx.Access{Table: TableSpecialFacility, Key: key,
			Insert: c.sf[:]}); err != nil {
			if err != kvs.ErrExists {
				return err
			}
			drop = true
			if err := t.Stage(sub, tx.Access{Table: TableSpecialFacility, Key: key,
				Erase: true}); err != nil {
				return err
			}
		}
		return t.Execute(func(lc *tx.Local) error {
			v, err := lc.Read(TableSubscriber, sid)
			if err != nil {
				return err
			}
			mask := v[1]
			if drop {
				mask &^= bit
			} else {
				mask |= bit
			}
			c.row = [3]uint64{v[0], mask, v[2]}
			return lc.Write(TableSubscriber, sid, c.row[:])
		})
	})
	if err == tx.ErrNotFound {
		return nil
	}
	return err
}

// InsertCallForwarding checks the facility is live (a transactional range
// scan with phantom protection), then inserts the forwarding row.
func (c *Client) InsertCallForwarding(sid uint64, sfType, start int) error {
	err := c.e.Exec(func(t *tx.Tx) error {
		rows, err := t.Scan(TableSpecialFacility, SFKey(sid, sfType), SFKey(sid, sfType), 1)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return nil // facility not active: benign no-op
		}
		if err := t.WInsert(TableCallForwarding,
			CFKey(sid, sfType, start), []uint64{uint64(start) + 8, SubNbr(sid)}); err != nil {
			if err == kvs.ErrExists {
				return tx.ErrUserAbort // already forwarded: abort cleanly
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

// DeleteCallForwarding erases one forwarding row if present.
func (c *Client) DeleteCallForwarding(sid uint64, sfType, start int) error {
	err := c.e.Exec(func(t *tx.Tx) error {
		if _, err := t.Erase(TableCallForwarding, CFKey(sid, sfType, start)); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error { return nil })
	})
	if err == tx.ErrNotFound {
		return nil
	}
	return err
}

// DeleteSubscriber removes the subscriber, its facility rows and (via the
// declared index) its sub_nbr entry in one transaction. The facility set is
// taken from the sf_mask observed at declare; commit re-verifies the
// subscriber row's version, so a racing toggle retries the whole delete.
func (c *Client) DeleteSubscriber(sid uint64) error {
	err := c.e.Exec(func(t *tx.Tx) error {
		old, err := t.Erase(TableSubscriber, sid)
		if err != nil {
			return err
		}
		// One batch for the masked facility rows (the subscriber's index row,
		// named by the value just fetched, rides it).
		var rows [NumSFTypes]tx.Access
		n := 0
		for ty := 1; ty <= NumSFTypes; ty++ {
			if old[1]&(1<<uint(ty)) != 0 {
				rows[n] = tx.Access{Table: TableSpecialFacility, Key: SFKey(sid, ty), Erase: true}
				n++
			}
		}
		if err := t.Stage(rows[:n]...); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error { return nil })
	})
	if err == tx.ErrNotFound {
		return nil
	}
	return err
}

// InsertSubscriber re-creates a subscriber with the given facility mask
// (bits 1..4), inserting the base row, the index row (declared index) and
// every masked facility row atomically.
func (c *Client) InsertSubscriber(sid, mask uint64) error {
	mask &= 0x1E
	err := c.e.Exec(func(t *tx.Tx) error {
		// One batch: the base row, its index row (declared index) and the
		// masked facility rows.
		c.row, c.sf = [3]uint64{SubNbr(sid), mask, 0}, [2]uint64{1, sid}
		rows := [1 + NumSFTypes]tx.Access{{Table: TableSubscriber, Key: sid, Insert: c.row[:]}}
		n := 1
		for ty := 1; ty <= NumSFTypes; ty++ {
			if mask&(1<<uint(ty)) != 0 {
				rows[n] = tx.Access{Table: TableSpecialFacility, Key: SFKey(sid, ty), Insert: c.sf[:]}
				n++
			}
		}
		if err := t.Stage(rows[:n]...); err != nil {
			if err == kvs.ErrExists {
				// The subscriber exists, or a racing insert of the same
				// subscriber got to a facility row first: equally benign.
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

// CheckSubscriberRO verifies the facility invariant for one subscriber with
// a single read-only transaction: the facility-range scan and the
// subscriber read confirm together, so the comparison sees one snapshot. A
// subscriber mid-delete reads as missing and is skipped (the quiesced Audit
// covers orphan detection). The result is the violation found, or the
// transaction's own error — ErrNodeDown across a failover.
func (c *Client) CheckSubscriberRO(sid uint64) error {
	var violation error
	err := c.e.ExecRO(func(ro *tx.RO) error {
		violation = nil
		rows, err := ro.Scan(TableSpecialFacility, SFKey(sid, 1), SFKey(sid, NumSFTypes), 0)
		if err != nil {
			return err
		}
		sub, err := ro.Read(TableSubscriber, sid)
		if err == tx.ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		var got uint64
		for _, r := range rows {
			got |= 1 << uint(r.Key&0xFF)
		}
		if got != sub[1]&0x1E {
			violation = fmt.Errorf("tatp: subscriber %d: sf_mask %#x but live facility rows %#x",
				sid, sub[1]&0x1E, got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return violation
}

// shardsFor resolves a partition's current ordered shards under the view: a
// failed-over partition is audited on the promoted backup's replica shards.
func (w *Workload) shardFor(part, table int) (*kvs.Ordered, error) {
	node, region := w.rt.C.Serving(part, table)
	o, ok := w.rt.C.Node(node).OrderedRegion(region)
	if !ok {
		return nil, fmt.Errorf("tatp: no shard for table %d partition %d", table, part)
	}
	return o, nil
}

// liveSet walks one ordered shard and returns its live rows. Call only at
// quiesce — it reads the arena directly.
func liveSet(o *kvs.Ordered) map[uint64][]uint64 {
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

// Audit is the full quiesced consistency check, per partition (routed by
// the current view, so a failed-over partition is audited on its promoted
// backup):
//
//   - facility exactness: every live subscriber's sf_mask matches exactly
//     the set of live SPECIAL_FACILITY rows (no orphans, none missing);
//   - index/base divergence: the sub_nbr index REBUILT from the base table
//     equals the maintained index, row for row, in both directions.
func (w *Workload) Audit() error {
	for part := 0; part < w.Cfg.Nodes; part++ {
		sub, err := w.shardFor(part, TableSubscriber)
		if err != nil {
			return err
		}
		sf, err := w.shardFor(part, TableSpecialFacility)
		if err != nil {
			return err
		}
		idx, err := w.shardFor(part, TableSubNbrIndex)
		if err != nil {
			return err
		}
		subs, sfs, idxs := liveSet(sub), liveSet(sf), liveSet(idx)

		// Facility exactness.
		want := map[uint64]bool{}
		for sid, v := range subs {
			for t := 1; t <= NumSFTypes; t++ {
				if v[1]&(1<<uint(t)) != 0 {
					want[SFKey(sid, t)] = true
				}
			}
		}
		for k := range want {
			if _, ok := sfs[k]; !ok {
				return fmt.Errorf("tatp audit: partition %d: subscriber %d declares facility %d but the row is missing",
					part, k>>8, k&0xFF)
			}
		}
		for k := range sfs {
			if !want[k] {
				return fmt.Errorf("tatp audit: partition %d: facility row %d/%d live but undeclared (or subscriber deleted)",
					part, k>>8, k&0xFF)
			}
		}

		// Index rebuilt from base vs maintained index.
		rebuilt := map[uint64]uint64{}
		for sid, v := range subs {
			rebuilt[v[0]] = sid
		}
		for nbr, want := range rebuilt {
			iv, ok := idxs[nbr]
			if !ok {
				return fmt.Errorf("tatp audit: partition %d: index row %#x missing for live subscriber %d",
					part, nbr, want)
			}
			if iv[0] != want {
				return fmt.Errorf("tatp audit: partition %d: index row %#x maps to %d, rebuild says %d",
					part, nbr, iv[0], want)
			}
		}
		for nbr, iv := range idxs {
			if _, ok := rebuilt[nbr]; !ok {
				return fmt.Errorf("tatp audit: partition %d: index row %#x -> %d has no live base row",
					part, nbr, iv[0])
			}
		}
	}
	return nil
}
