package tx

// The record access path (DESIGN.md, "Record access path"): the paper has one
// way to take a record — resolve its entry, CAS the state word through the
// Figure 5 lock/lease state machine, READ the entry and incarnation-check it
// (Sections 4.3, 5.2) — and this file holds the one copy of each step that
// Tx staging, read-only transactions and the software fallback all run, for
// hash and ordered tables alike:
//
//	recHandle        where the record's entry is, resolved once by either index
//	lookupOrdered    the one local B+ tree lookup, through the executor's leaf
//	                 cache, priced by what the index did (chargeIndexOp)
//	acquirer         the I/O-free Figure 5 state machine over the state word,
//	                 with the paper's two arms: a lease, and a lock — which
//	                 is also what a staged read later written takes
//	Executor.acquire its synchronous driver (stageBatch drives it in waves)
//	Executor.waitOut the one step an escalated attempt takes between two polls
//	                 of a record somebody else holds
//	Executor.judge   the entry-image check every fetch runs (recHandle.check)
//	                 and what follows it: a speculative read counted, a stale
//	                 location dropped
//
// Nothing past the handle knows whether the row came from the hash table or
// the B+ tree, except through handle.ordered.

import (
	"errors"
	"runtime"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// recHandle addresses one record's entry. The logical coordinates come from
// the router; resolve (or the batched bucket walk) fills in the location.
type recHandle struct {
	table, node int
	region      int // storage region on node (replica region after failover)
	part        int // home partition (for replication; -1 if replicated table)
	key         uint64
	off         memory.Offset // entry offset in the owner's arena
	// lossy is the low incarnation bits (kvs.LossyBits) the locator carried
	// (hash tables): an entry whose incarnation no longer matches was deleted
	// or reused since the location was observed. Ordered locations come from
	// the host's tree and carry none.
	lossy   uint16
	ordered bool
	// cached marks an ordered location taken from the location cache (RO.fetch
	// alone does that): only a live entry of the key vouches for it.
	cached bool
}

// recImage is what a checked entry image leaves in a record.
type recImage struct {
	buf     []uint64 // value (transaction-private)
	version uint32   // version observed at fetch
	inc     uint32   // incarnation observed at fetch
}

func lossyOf(inc uint32) uint16 { return uint16(inc) & (1<<kvs.LossyBits - 1) }

// handle routes a record and classifies its store.
func (e *Executor) handle(table int, key uint64) recHandle {
	node, region, part := e.route(table, key)
	return recHandle{table: table, node: node, region: region, part: part, key: key,
		ordered: e.rt.Meta(table).Kind == Ordered}
}

func (e *Executor) hashTable(h *recHandle) *kvs.Table {
	return e.rt.C.Node(h.node).Unordered(h.region)
}

// resolve fills in the handle's location through the index that owns the
// record: the local shard directly, a remote hash table by the one-sided
// bucket walk (through the location cache), a remote ordered table by the
// shipped tree lookup (Section 6.5), retried under the acquisition-side policy.
// found is false when the key is not in the index; the error is ErrNodeDown.
func (e *Executor) resolve(h *recHandle) (found bool, err error) {
	local := h.node == e.w.Node.ID
	switch {
	case h.ordered && local:
		_, h.off, found = e.lookupOrdered(h.region, h.key)
	case h.ordered:
		found, err = e.shipOne(h, false)
	case local:
		e.charge(e.model().HashProbeNS)
		tbl := e.w.Node.Unordered(h.region)
		if h.off, found = tbl.LookupLocal(h.key); found {
			h.lossy = lossyOf(kvs.Incarnation(tbl.Arena().LoadWord(kvs.IncVerOffset(h.off))))
		}
	default:
		var loc kvs.Loc
		err = e.verbRetry(func() error {
			var lerr error
			loc, found, lerr = e.hashTable(h).LookupRemoteInto(e.w.QP, e.cacheFor(h.node, h.region), h.key, &e.bktBuf)
			return lerr
		})
		h.off, h.lossy = loc.Off, uint16(loc.Lossy)
	}
	if err != nil {
		return false, ErrNodeDown
	}
	return found, nil
}

// finger returns the executor's leaf cache for one of this node's ordered
// regions: the leaves its last operations on that shard ended in, so that runs
// of adjacent keys — an order's lines, one after the other; ten districts'
// append points and delivery heads taking turns — walk the tree once per leaf.
func (e *Executor) finger(region int) *kvs.Finger {
	f := e.fingers[region]
	if f == nil {
		if e.fingers == nil {
			e.fingers = make(map[int]*kvs.Finger)
		}
		f = new(kvs.Finger)
		e.fingers[region] = f
	}
	return f
}

// chargeIndexOp prices one operation — lookup, insert, delete or the start of
// a scan — on a local ordered shard by what the index did, and counts it: a
// root-to-leaf descent costs BTreeOpNS, whichever reason it was made for, a
// hit on a remembered leaf the one node search it is (HashProbeNS). A shipped
// operation is priced per key by its sender, before the host walks (ship,
// shipHostOps).
func (e *Executor) chargeIndexOp(via kvs.IndexPath) {
	switch via {
	case kvs.IndexHit:
		e.w.Obs.Inc(obs.EvFingerHit)
		e.charge(e.model().HashProbeNS)
		return
	case kvs.IndexFullLeaf:
		e.w.Obs.Inc(obs.EvLeafFullDescent)
	default:
		e.w.Obs.Inc(obs.EvTreeDescent)
	}
	e.charge(e.model().BTreeOpNS)
}

// lookupOrdered resolves key in this node's shard of an ordered region: the
// one local tree lookup, used by the region's reads and writes
// (Local.resolve), by read-only transactions and the fallback (resolve).
func (e *Executor) lookupOrdered(region int, key uint64) (*kvs.Ordered, memory.Offset, bool) {
	o := e.w.Node.Ordered(region)
	off, found, via := o.LookupAt(e.finger(region), key)
	e.chargeIndexOp(via)
	return o, off, found
}

// ensureEntry makes the key structurally present as a DEAD entry on its host
// (the declare half of a transactional insert) and resolves the handle to
// it. The error is ErrNodeDown, or the host's answer: kvs.ErrExists when the
// key is live, kvs.ErrFull.
func (e *Executor) ensureEntry(h *recHandle) error {
	if h.node == e.w.Node.ID {
		off, _, err := e.rt.execEnsureEntry(e.w.Node, h.region, h.table, h.part, h.key, clock.Init)
		h.off = off
		return err
	}
	_, err := e.shipOne(h, true)
	if err != nil && !errors.Is(err, kvs.ErrExists) && !errors.Is(err, kvs.ErrFull) {
		return ErrNodeDown
	}
	return err
}

// call sends one two-sided message of the given type, carrying ops keys or
// operations, to node. The envelope is the executor's own — a call is
// synchronous, so one does for every message and none is boxed per call.
func (e *Executor) call(node, typ int, body any, ops, reqBytes, respBytes int) (any, error) {
	e.callMsg = cluster.Msg{Type: typ, Body: body}
	resp, err := e.w.QP.Call(node, &e.callMsg, reqBytes, respBytes)
	if err == nil {
		e.w.Obs.Add(obs.EvShippedOp, int64(ops))
	}
	return resp, err
}

// ship sends ops — tree lookups and EnsureDeads for one host, built in the
// executor's message scratch (e.shipMsg.Ops[:0]) — as one msgOrderedOps message
// and leaves the host's answers in them. The message is charged for its
// payload each way (a header word, 32 and 16 bytes per op, and every op's Img:
// a lookup's entry image, an EnsureDead's header when it asks for its slot
// born held) plus one tree operation per key, so that coalescing hides none of
// the host's work. An Img is charged whether or not the host fills it — a
// lookup that misses, an EnsureDead that finds a dead entry — as the reply's
// size is the sender's to fix. Acquisition-side: transient faults retry the
// whole message, whose last reply is what stays; the error is a verbs failure
// or the host's refusal (no such region).
func (e *Executor) ship(node int, ops []shipOp) error {
	e.charge(e.model().BTreeOpNS * int64(len(ops)))
	e.shipMsg.Ops = ops
	reply := 8 + 16*len(ops)
	for i := range ops {
		reply += 8 * len(ops[i].Img)
	}
	var resp any
	err := e.verbRetry(func() error {
		var cerr error
		resp, cerr = e.call(node, msgOrderedOps, &e.shipMsg, len(ops), 8+32*len(ops), reply)
		return cerr
	})
	if herr, refused := resp.(error); err == nil && refused {
		err = herr
	}
	return err
}

// shipOne is ship for one record (read-only transactions and the fallback
// resolve serially): it fills in the handle's location and returns the
// lookup's found, or the EnsureDead's error. A found entry's image stays in
// the executor's image scratch until its next serial fetch or message.
func (e *Executor) shipOne(h *recHandle, ensure bool) (bool, error) {
	op := shipOp{Region: h.region, Table: h.table, Part: h.part, Key: h.key, Ensure: ensure}
	if !ensure {
		op.Img = e.image(kvs.EntryValueWord + e.rt.Meta(h.table).ValueWords)
	}
	ops := append(e.shipMsg.Ops[:0], op)
	err := e.ship(h.node, ops)
	if err == nil {
		h.off, err = ops[0].Off, ops[0].Err
	}
	return ops[0].Found, err
}

// image returns n words of the executor's image scratch (readEntry, shipOne).
func (e *Executor) image(n int) []uint64 {
	if cap(e.imgBuf) < n {
		e.imgBuf = make([]uint64, n)
	}
	return e.imgBuf[:n]
}

// invalidate drops what the location cache held of a location that proved
// stale — a hash record's bucket chain, an ordered record's frame if the
// location came from one — so the retry re-resolves it instead of replaying it.
func (e *Executor) invalidate(h *recHandle) {
	switch {
	case h.node == e.w.Node.ID:
	case !h.ordered:
		e.hashTable(h).Invalidate(e.w.QP, e.cacheFor(h.node, h.region), h.key)
	case h.cached:
		e.cacheFor(h.node, h.region).DropLoc(e.w.Obs, h.key)
		h.cached = false
	}
}

// acqMode is what an acquisition wants from the state word: the paper's two
// arms (Figure 5). A staged read that is later declared for write takes the
// lock arm like any writer, so it waits out a running lease — its own too.
type acqMode uint8

const (
	acqLease acqMode = iota // shared lease until leaseEnd
	acqLock                 // exclusive lock
)

// acqVerdict is the outcome of one CAS round.
type acqVerdict uint8

const (
	acqWon      acqVerdict = iota // the wanted word is installed, or a running lease covers the read
	acqAgain                      // CAS (old → want) again
	acqWait                       // held by a conflicting owner: wait, then CAS again (waits arms)
	acqConflict                   // held by a live conflicting owner
)

// acquirer is the Figure 5 lock/lease state machine for one state word. It
// does no I/O: the driver CASes (old → want), feeds the completion to step
// and repeats while the verdict is acqAgain — and, for an arm that waits,
// after a wait while it is acqWait.
type acquirer struct {
	mode      acqMode
	old, want uint64
	takeover  bool // the armed round takes over an expired lease in place
	// waits marks an escalated attempt's arm: a lock, or a foreign lease a
	// writer cannot share, is waited for (acqWait) instead of given up.
	waits bool
}

// arm prepares the first round, which expects the free word: leaseEnd is the
// wanted lease end (acqLease).
func (a *acquirer) arm(mode acqMode, owner uint8, leaseEnd uint64) {
	*a = acquirer{mode: mode, old: clock.Init, want: clock.WLocked(owner)}
	if mode == acqLease {
		a.want = clock.Shared(leaseEnd)
	}
}

// step consumes one CAS completion — the word the CAS found and whether it
// swapped — at soft-time now (read only when the CAS did not swap). It returns
// the verdict and, for reads, the end of the lease that now covers the record
// (the caller's own, or the shared one), and counts the lease events.
func (a *acquirer) step(sh *obs.Shard, cur uint64, swapped bool, now, delta uint64) (acqVerdict, uint64) {
	write := a.mode == acqLock
	if swapped {
		if a.takeover {
			sh.Inc(obs.EvLeaseExpire)
		}
		if write {
			return acqWon, 0
		}
		sh.Inc(obs.EvLeaseGrant)
		return acqWon, clock.LeaseEnd(a.want)
	}
	end := clock.LeaseEnd(cur)
	live := !clock.Expired(end, now, delta)
	if clock.IsWriteLocked(cur) || live && write {
		// Held against the arm. Writers wait out an unexpired lease too:
		// through a whole-transaction retry, or here.
		if a.waits {
			return acqWait, 0
		}
		return acqConflict, 0
	}
	if live {
		sh.Inc(obs.EvLeaseShare)
		return acqWon, end
	}
	if a.takeover {
		// Lost the takeover race to a racer that moved the word on — a fresh
		// lease or lock is judged above next round: restart from the free word.
		a.takeover, a.old = false, clock.Init
		return acqAgain, 0
	}
	// Expired lease observed: take it over in place.
	a.takeover, a.old = true, cur
	return acqAgain, 0
}

// casRemote is the acquisition-side CAS: transient faults retry with
// backoff; a persistent failure surfaces as an error (see fault.go).
func (e *Executor) casRemote(node, region int, off memory.Offset, old, new uint64) (uint64, bool, error) {
	var cur uint64
	var ok bool
	err := e.verbRetry(func() error {
		var cerr error
		cur, ok, cerr = e.w.QP.TryCAS(node, region, off, old, new)
		return cerr
	})
	return cur, ok, err
}

// acquire drives the machine with synchronous CASes: one-sided RDMA CAS, or,
// when cpuCAS allows it for a record of this node, the cheap CPU CAS.
// Read-only transactions always may (with read sets of hundreds of records
// anything else would dwarf the transaction); the fallback only under
// IBV_ATOMIC_GLOB (Section 6.3). An arm that waits polls a held word until it
// is free to take — each poll one CAS, waitOut between two — and gives up only
// when the holder's machine is down (ErrNodeDown) or the record moved
// meanwhile (acqConflict).
func (e *Executor) acquire(a *acquirer, h *recHandle, cpuCAS bool) (acqVerdict, uint64, error) {
	delta := e.rt.C.Delta()
	stateOff := kvs.StateOffset(h.off)
	cpuCAS = cpuCAS && h.node == e.w.Node.ID
	for {
		var (
			cur     uint64
			swapped bool
			err     error
		)
		if cpuCAS {
			cur, swapped = e.w.QP.LocalCAS(h.region, stateOff, a.old, a.want)
		} else {
			cur, swapped, err = e.casRemote(h.node, h.region, stateOff, a.old, a.want)
		}
		if err != nil {
			return acqConflict, 0, ErrNodeDown
		}
		var now uint64
		if !swapped {
			now = e.w.Node.Clock.Read()
		}
		v, end := a.step(e.w.Obs, cur, swapped, now, delta)
		if v == acqWait {
			if moved, err := e.waitOut(h, cur); moved || err != nil {
				return acqConflict, 0, err
			}
		} else if v != acqAgain {
			return v, end, nil
		}
	}
}

// waitOut is the one step an escalated attempt takes between two polls of a
// record held against it — state is the word the last poll found. A worker of
// a machine that is down (a zombie) returns ErrNodeDown at once: fail-stop
// ends its attempt, and what the attempt left is the repair's to settle.
// Behind a lock it yields the processor to the holder, or returns ErrNodeDown
// when the holder's machine is down: its locks are recovery's to free, and the
// attempt ends with that machine's verdict. Behind an unexpired lease it sleeps until the lease
// has expired; otherwise it yields. Then it reports whether the record moved
// meanwhile: an ordered record's slot can be unlinked under a waiter and keep
// its remover's lock for good, so the index is asked whether the entry is still
// the key's (a host that cannot say counts as moved). A caller polls again
// unless it moved.
func (e *Executor) waitOut(h *recHandle, state uint64) (moved bool, err error) {
	if e.zombie() {
		return false, ErrNodeDown
	}
	now := e.w.Node.Clock.Read()
	switch end := clock.LeaseEnd(state) + e.rt.C.Delta(); {
	case clock.IsWriteLocked(state):
		if e.rt.C.Fabric.NodeDown(int(clock.Owner(state))) {
			return false, ErrNodeDown
		}
		runtime.Gosched()
	case end >= now:
		time.Sleep(time.Duration(end-now+1) * time.Microsecond)
	default:
		runtime.Gosched()
	}
	if !h.ordered {
		return false, nil
	}
	cur := *h
	found, err := e.resolve(&cur)
	return err != nil || !found || cur.off != h.off, nil
}

// readEntry fetches the record's entry image — header and value — into the
// executor's scratch: one READ for a remote record, a plain copy for a local
// one.
func (e *Executor) readEntry(h *recHandle, vw int) ([]uint64, error) {
	words := e.image(kvs.EntryValueWord + vw)
	if h.node == e.w.Node.ID {
		e.rt.arenaOf(h.node, h.region).Read(words, h.off)
		e.charge(int64(vw+1) * e.model().HTMPerReadNS)
		return words, nil
	}
	if err := e.verbRetry(func() error {
		return e.w.QP.TryRead(h.node, h.region, h.off, words)
	}); err != nil {
		return nil, ErrNodeDown
	}
	return words, nil
}

// pollReads polls the wave of READs posted on sq and re-drives, under the
// bounded retry policy, those that failed or were flushed behind one that did
// (never attempted: no verdict about the record). It returns false when a host
// stayed unreachable.
func (e *Executor) pollReads(sq *rdma.SendQueue) bool {
	for _, wr := range sq.Poll() {
		if wr.Err == nil {
			continue
		}
		if err := e.verbRetry(func() error {
			return e.w.QP.TryRead(wr.Node, wr.Region, wr.Off, wr.Dst)
		}); err != nil {
			return false
		}
		wr.Err = nil
	}
	return true
}

// imgVerdict is the outcome of checking a fetched entry image, ordered by how
// much of the transaction it costs: the first three are answers about the
// one record, the last two retry the whole transaction.
type imgVerdict uint8

const (
	imgOK       imgVerdict = iota
	imgExists              // an insert found the key live
	imgNotFound            // the entry is (stably) dead
	imgBusy                // write-locked under an unprotected read: mid-commit
	imgStale               // not this record's entry any more: re-resolve
)

// check validates an entry image fetched at the handle's location and, when
// it is the wanted record, moves it into m. wantDead is the insert case: the
// entry must be the key's staged DEAD slot, and m keeps the value the insert
// will publish. spec marks a read that holds no lock or lease.
//
// A different key, or for hash and cached ordered locations a dead entry, or
// for hash locations one whose incarnation moved on from the locator's, means
// the location is stale (deleted or reused slot): a tree's answer says where
// the key's entry is now, dead or not, a remembered one only where it was. On
// the speculative arm the lock is checked before liveness: a write-locked row
// is mid-flip, so neither "found" nor "not found" is a stable answer yet —
// with a lock or lease held, writers are excluded and dead means stably dead.
func (h *recHandle) check(words []uint64, m *recImage, vw int, wantDead, spec bool) imgVerdict {
	incver := words[kvs.EntryIncVerWord]
	inc := kvs.Incarnation(incver)
	live := kvs.Live(inc)
	switch {
	case words[kvs.EntryKeyWord] != h.key:
		return imgStale
	case h.cached && !live:
		// Before the lock: a freed slot keeps its remover's lock word for good.
		return imgStale
	case spec && clock.IsWriteLocked(words[kvs.EntryStateWord]):
		return imgBusy
	case !h.ordered && (!live || lossyOf(inc) != h.lossy):
		return imgStale
	case live && wantDead:
		return imgExists
	case !live && !wantDead:
		return imgNotFound
	}
	m.inc, m.version = inc, kvs.Version(incver)
	if !wantDead {
		m.buf = append(m.buf[:0], words[kvs.EntryValueWord:kvs.EntryValueWord+vw]...)
	}
	return imgOK
}

// judge is every fetch's verdict on an entry image: check, then what follows
// it whoever fetched — a speculative read that saw the row (or the row
// mid-commit) counts as one, and a stale location is dropped from the location
// cache so the retry re-resolves it.
func (e *Executor) judge(h *recHandle, words []uint64, m *recImage, vw int, wantDead, spec bool) imgVerdict {
	v := h.check(words, m, vw, wantDead, spec)
	switch {
	case v == imgStale:
		e.invalidate(h)
	case spec && (v == imgOK || v == imgBusy):
		e.w.Obs.Inc(obs.EvSpecRead)
	}
	return v
}
