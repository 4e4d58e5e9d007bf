package tx

import (
	"errors"
	"fmt"
	"slices"

	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Batched Start phase (REMOTE_READ / REMOTE_WRITE of Figure 5, pipelined).
//
// The serial path paid ~3 round trips per remote record: lookup READ(s),
// lock/lease CAS, prefetch READ. This file splits staging into
// gather/issue/complete over the rdma async verb engine: independent records'
// verbs of one stage are posted together and polled as doorbell batches, so an
// N-record Start phase costs roughly max-of-round-trips per stage, not the sum.
// Dependent verbs (a record's CAS after its lookup, a takeover CAS after an
// expired lease) still order across polls, as on a real QP.
//
// Tx.Stage is the one declaration pipeline: reads, writes, transactional
// inserts and erases, of hash and ordered tables, declared one at a time
// (R / W / WInsert / Erase are one-access calls) or as a batch. Three
// refinements ride it:
//
//   - Ordered records have no one-sided lookup path (Section 6.5): the tree
//     walk ships to the host. A batch ships ONE multi-op message per host —
//     lookups and the EnsureDeads of its inserts together, at most
//     BatchWindow keys per message (shipResolve) — charged for its payload
//     each way plus one tree operation per key it carries.
//
//   - The lock/lease CAS and the value prefetch READ are fused into ONE
//     posted wave: each CAS is immediately followed by its record's entry
//     READ in post order, so a successful CAS's image is covered by the fresh
//     lock/lease. A failed CAS discards the image and re-arms both verbs; so
//     does a CAS that fell back to the sync retry path (it postdates the
//     READ). Structural records — an insert's staged dead slot, an erase's
//     live row, base and index rows alike — lock in the same waves as plain
//     writes. A wave of lock CASes cannot deadlock: a CAS that loses to a
//     live owner aborts the transaction, it never waits.
//
//   - Read-set records routed to the speculative arm (PolicyAdaptive) skip
//     the CAS stage entirely: one entry READ fetches
//     `version ‖ state ‖ value` — an ordered record's shipped lookup already
//     did — and the version is re-validated at commit (spec.go). A record
//     observed write-locked at fetch is a conflict.
//
//   - An escalated attempt declares every remote record, writes and
//     structural halves too, on the speculative arm: it holds nothing until
//     its fallback takes the records in the global order (fallback.go), so it
//     may wait here — re-reading an image observed write-locked until it is
//     not — where any other attempt aborts.
//
// The per-record lock/lease decisions are the acquirer state machine and the
// image checks recHandle.check (access.go) — the same ones read-only
// transactions and the fallback drive serially. Conflicts and node failures
// are detected per completion and resolve after the wave is fully processed,
// so every lock that was actually acquired is registered and released on
// abort.

// Access declares one record access for batched staging: a read, a write
// (Write), a transactional insert into an ordered table (Insert, the value to
// publish) or a transactional erase of an ordered row (Erase). Inserts and
// erases carry the row's declared secondary-index rows with them.
type Access struct {
	Table int
	Key   uint64
	Write bool

	Insert []uint64
	Erase  bool

	// ixOf marks the erase of the secondary-index row of base — an access the
	// pipeline declares itself, on behalf of the base row's erase.
	ixOf bool
	base refKey
}

// Stage declares a set of accesses at once. Local records are declared for
// the HTM region; remote records run the batched gather/issue/complete
// pipeline: one shipped message per host resolves the ordered ones, then
// every record's lock/lease CAS and prefetch READ overlap across records.
// The outcome is that of calling R / W / WInsert / Erase per access.
//
// kvs.ErrExists, kvs.ErrFull and ErrNotFound are answers about one record: it
// is left unstaged and the transaction stays usable. The other records of the
// call may or may not have been staged by then; a caller that goes on
// re-declares what it needs (re-declaring a staged record is free).
func (t *Tx) Stage(accs ...Access) error {
	e := t.e
	owed := len(t.owed)
	var err error
	for i := 0; i < owed && err == nil; i++ {
		err = t.declare(t.owed[i])
	}
	for i := 0; i < len(accs) && err == nil; i++ {
		err = t.declare(accs[i])
	}
	if reqs := e.reqScr; len(reqs) > 0 {
		if err == nil {
			err = t.stageBatch(reqs)
		}
		if !t.finished {
			t.oweIndexRows(reqs)
		}
		e.putReqs(reqs)
		e.reqScr = reqs[:0]
	}
	if err == nil {
		// Owed rows leave the list only once staged: a batch that failed on some
		// other record declares them again.
		t.owed = t.owed[:copy(t.owed, t.owed[owed:])]
	}
	return err
}

// declare routes one access: a local record is declared for the HTM region on
// the spot, a remote one joins the batch under construction. An insert brings
// the matching row of every secondary index declared over its table; an
// erase's index rows are named by the base value (declareLocalErase,
// oweIndexRows).
func (t *Tx) declare(a Access) error {
	e := t.e
	if a.Insert != nil || a.Erase {
		meta := e.rt.Meta(a.Table)
		if meta.Kind != Ordered {
			panic(fmt.Sprintf("tx: WInsert / Erase on unordered table %d (use Local.Insert / Local.Delete)", a.Table))
		}
		if a.Insert != nil && len(a.Insert) != meta.ValueWords {
			panic(fmt.Sprintf("tx: WInsert value length %d, want %d", len(a.Insert), meta.ValueWords))
		}
	}
	node, region, part := e.route(a.Table, a.Key)
	t.stampView(part)
	var err error
	switch {
	case node != e.w.Node.ID:
		t.gather(a, node, region, part)
	case a.Insert != nil:
		err = t.declareLocalInsert(a.Table, region, part, a.Key, a.Insert)
	case a.Erase:
		err = t.declareLocalErase(a, region, part)
	default:
		t.declareLocal(a.Table, region, part, a.Key, a.Write)
	}
	if err != nil || a.Insert == nil {
		return err
	}
	for _, spec := range e.rt.indexesOf(a.Table) {
		ival := t.carve(e.rt.Meta(spec.Table).ValueWords)
		ival[0] = a.Key
		if err := t.declare(Access{Table: spec.Table, Key: spec.Key(a.Key, a.Insert), Insert: ival}); err != nil {
			return err
		}
		e.w.Obs.Inc(obs.EvIndexMaint)
	}
	return nil
}

// gather adds one remote access to the batch, deduplicated against the batch
// (a repeated key strengthens its request before issue: a free upgrade; the
// batches are a transaction's declared rows, so the scan is short) and against
// the staged set.
func (t *Tx) gather(a Access, node, region, part int) {
	e := t.e
	structural := a.Insert != nil || a.Erase
	write := a.Write || structural || t.policy == PolicyExclusive
	var s *stageReq
	for _, b := range e.reqScr {
		if b.h.table == a.Table && b.h.key == a.Key {
			s = b
			break
		}
	}
	if s == nil {
		if s = t.gatherRemote(a.Table, a.Key, node, region, part, write); s == nil {
			if r := t.rIndex[refKey{a.Table, a.Key}]; structural && !(a.Erase && r.erase) && !(a.Insert != nil && r.insert) {
				panic(fmt.Sprintf("tx: WInsert / Erase of table %d key %d, already write-staged by this transaction", a.Table, a.Key))
			}
			return
		}
		e.reqScr = append(e.reqScr, s)
	} else if write && !s.write {
		s.write, s.spec = true, t.escalated
	}
	if a.Insert != nil {
		s.insert, s.val = true, a.Insert
	}
	if a.Erase {
		s.erase, s.ixOf, s.base = true, a.ixOf, a.base
	}
}

// oweIndexRows queues the index rows of the erases the batch staged. The
// index keys come out of the base values it just fetched, so the rows could
// not join their bases' wave: they ride the next one — the transaction's next
// Stage call, or the one Execute issues before the region.
func (t *Tx) oweIndexRows(reqs []*stageReq) {
	for _, s := range reqs {
		if !s.erase || s.r == nil || !s.r.erase {
			continue
		}
		for _, spec := range t.e.rt.indexesOf(s.h.table) {
			t.owed = append(t.owed, Access{Table: spec.Table, Key: spec.Key(s.h.key, s.r.buf),
				Erase: true, ixOf: true, base: refKey{s.h.table, s.h.key}})
			t.e.w.Obs.Inc(obs.EvIndexMaint)
		}
	}
}

// indexRowMissing is an erase's index row that is not there. When the base row
// is local, or an escalated attempt declared it, it was staged unlocked, so a
// racing erase of the same row may have committed its base and index flips
// since: that lost race retries. A remote base row is otherwise staged under
// our lock and cannot move — the index diverged from the base table. Surface
// loudly; the divergence audit pins this.
func (t *Tx) indexRowMissing(table int, base refKey) error {
	if op := findStructOp(t.localErase, base.table, base.key); op != nil &&
		t.e.w.Node.Ordered(op.region).Arena().LoadWord(kvs.IncVerOffset(op.off)) != kvs.PackIncVer(op.inc, op.ver) {
		return t.fail()
	}
	if r := t.rIndex[base]; r != nil && r.spec &&
		t.e.rt.arenaOf(r.node, r.region).LoadWord(kvs.IncVerOffset(r.off)) != kvs.PackIncVer(r.inc, r.version) {
		return t.fail()
	}
	panic(fmt.Sprintf("tx: index table %d missing row for base table %d key %d",
		table, base.table, base.key))
}

// stageRemote stages one record at an explicit host: the entry point of
// Probe.Stage, which names the node itself. A batch of one runs the same
// pipeline.
func (t *Tx) stageRemote(table int, key uint64, node, region, part int, write bool) error {
	s := t.gatherRemote(table, key, node, region, part, write)
	if s == nil {
		return nil
	}
	one := [1]*stageReq{s}
	err := t.stageBatch(one[:])
	t.e.putReqs(one[:])
	return err
}

// stageReq is one remote record's slot in the staging pipeline.
type stageReq struct {
	h recHandle

	// r is the staged record: taken from the pool once the record is acquired
	// (register), or for an upgrade the record already staged with a shared
	// lease or a speculative read that now needs an exclusive lock — the
	// pipeline CASes the lease word to the lock word in place (release is
	// implicit: an unupgraded lease just expires; a speculative read held
	// nothing).
	r       *remoteRec
	upgrade bool
	write   bool

	// spec marks a speculative (OCC) read: no lock/lease CAS — the entry is
	// fetched with one READ and validated at commit (see policy.go).
	spec bool

	// insert (with the value to publish) and erase mark the structural halves
	// of a transactional insert / erase: the locked entry must be the key's
	// staged dead slot (flipped live at commit) resp. a live row (flipped dead
	// at commit). ixOf marks the erase of a secondary-index row of base.
	insert, erase, ixOf bool
	val                 []uint64
	base                refKey

	// ship: the record's location is its host's to give — an ordered record
	// whose tree operation has yet to go out with a shipped message. The answer
	// lands in lr, like a hash record's bucket walk.
	ship bool
	lr   kvs.LookupReq

	vw int // value words, for the entry-read buffer

	acq       acquirer
	needFetch bool
	verdict   imgVerdict
	entryWR   *rdma.WR
	fuseWR    *rdma.WR // prefetch READ posted in the same wave as the CAS

	ebuf []uint64 // pooled entry-read destination
}

// getReq pops a pooled staging request (entry-read buffer capacity kept).
func (e *Executor) getReq() *stageReq {
	if n := len(e.reqFree); n > 0 {
		s := e.reqFree[n-1]
		e.reqFree = e.reqFree[:n-1]
		ebuf := s.ebuf
		*s = stageReq{ebuf: ebuf}
		return s
	}
	return &stageReq{}
}

// putReqs returns staging requests to the pool after the batch resolves.
func (e *Executor) putReqs(reqs []*stageReq) {
	e.reqFree = append(e.reqFree, reqs...)
}

// entryBuf returns the request's entry-read destination: the header and the
// value.
func (s *stageReq) entryBuf() []uint64 {
	n := kvs.EntryValueWord + s.vw
	if cap(s.ebuf) < n {
		s.ebuf = make([]uint64, n)
	}
	return s.ebuf[:n]
}

// newReq builds the pipeline request for a handle.
func (t *Tx) newReq(h recHandle, write bool) *stageReq {
	s := t.e.getReq()
	s.h, s.write = h, write
	s.vw = t.e.rt.Meta(h.table).ValueWords
	return s
}

// gatherRemote dedupes one remote access against the staged set and builds
// its pipeline request; a nil request means the access is already satisfied.
func (t *Tx) gatherRemote(table int, key uint64, node, region, part int, write bool) *stageReq {
	e := t.e
	if r, ok := t.rIndex[refKey{table, key}]; ok {
		if !write || r.write || t.escalated {
			r.write = r.write || write // an escalated attempt holds nothing to upgrade
			return nil
		}
		s := t.newReq(r.recHandle, true)
		s.r, s.upgrade = r, true
		return s
	}
	s := t.newReq(recHandle{table: table, node: node, region: region, part: part, key: key,
		ordered: e.rt.Meta(table).Kind == Ordered}, write)
	s.ship = s.h.ordered
	s.spec = t.escalated || !write && e.routeRead(t.policy)
	return s
}

// shipResolve resolves the batch's ordered records on their hosts' trees:
// the lookups, and the EnsureDeads that make its inserts' keys structurally
// present, go out together as one message per host — at most BatchWindow keys
// per message, so a window of 1 is one message per record. A lookup's reply
// brings the entry it found into the request's own entry buffer, until a READ
// is posted into it. It reports false when a host stayed unreachable.
func (t *Tx) shipResolve(reqs []*stageReq, window int) bool {
	e := t.e
	for i, first := range reqs {
		if !first.ship {
			continue
		}
		ops, members := e.shipMsg.Ops[:0], e.shipReqs[:0]
		for _, s := range reqs[i:] {
			if !s.ship || s.h.node != first.h.node || len(ops) == window {
				continue
			}
			s.ship = false
			op := shipOp{Region: s.h.region, Table: s.h.table, Part: s.h.part,
				Key: s.h.key, Ensure: s.insert}
			if !s.insert {
				op.Img = s.entryBuf()[:kvs.EntryValueWord+s.vw]
			}
			ops = append(ops, op)
			members = append(members, s)
		}
		err := e.ship(first.h.node, ops)
		for j, s := range members {
			s.lr.Loc.Off, s.lr.Found, s.lr.Err = ops[j].Off, ops[j].Found, ops[j].Err
		}
		e.shipReqs = members[:0]
		if err != nil {
			return false
		}
	}
	return true
}

// stageBatch runs the pipelined stages — location lookup (one-sided bucket
// walks, shipped tree operations), fused lock/lease CAS + prefetch, then a
// fetch pass for speculative reads and stragglers — for all requests, polling
// each stage's outstanding verbs as doorbell batches.
func (t *Tx) stageBatch(reqs []*stageReq) error {
	e := t.e
	startv := int64(e.w.VClock.Now())
	defer func() { t.vLock += int64(e.w.VClock.Now()) - startv }()
	sh := e.w.Obs
	sq := e.sendq(obs.StageLookup)

	// ---- resolve: batched bucket-chain walks, shipped tree operations ------
	lstart := int64(e.w.VClock.Now())
	lreqs := e.lreqScr[:0]
	for _, s := range reqs {
		if h := &s.h; !h.ordered && !s.upgrade {
			s.lr = kvs.LookupReq{Table: e.hashTable(h), Cache: e.cacheFor(h.node, h.region), Key: h.key}
			lreqs = append(lreqs, &s.lr)
		}
	}
	if len(lreqs) > 0 {
		kvs.LookupBatch(sq, lreqs)
	}
	e.lreqScr = lreqs[:0]
	down := !t.shipResolve(reqs, sq.Window())
	var answer error // the first record that is not there to take (or, for an insert, is)
	for _, s := range reqs {
		if !s.h.ordered && s.lr.Err != nil && !down {
			// A bucket READ of the walk failed, or was flushed behind one that
			// did: walk again under the bounded retry policy.
			s.lr.Found, s.lr.Err = e.resolve(&s.h)
			s.lr.Loc = kvs.Loc{Off: s.h.off, Lossy: uint64(s.h.lossy)}
		}
		switch {
		case down || s.upgrade: // an upgrade was located when it was first staged
		case s.lr.Err != nil:
			if !errors.Is(s.lr.Err, kvs.ErrExists) && !errors.Is(s.lr.Err, kvs.ErrFull) {
				down = true
			} else if answer == nil {
				answer = s.lr.Err
			}
		case !s.lr.Found:
			if s.ixOf {
				return t.indexRowMissing(s.h.table, s.base)
			}
			if answer == nil {
				answer = ErrNotFound
			}
		default:
			s.h.off, s.h.lossy = s.lr.Loc.Off, uint16(s.lr.Loc.Lossy)
		}
	}
	sh.Observe(obs.PhaseLookupRemote, int64(e.w.VClock.Now())-lstart)
	if down {
		return t.nodeDown()
	}
	if answer != nil {
		return answer
	}

	// ---- acquire: fused lock/lease CAS + prefetch READ waves ---------------
	// Speculative records acquire nothing: they are registered directly and
	// fetched in the final stage with a single entry READ — an ordered record
	// not even that, unless it is an insert: it consumes the entry its shipped
	// lookup's reply carried, all an unprotected READ of that offset would
	// bring. Every other arm's image must postdate its lock or lease: the READ
	// fused behind its CAS.
	astart := int64(e.w.VClock.Now())
	sq.Stage = obs.StageLock
	me := uint8(e.w.Node.ID)
	delta := e.rt.C.Delta()
	active := e.activeSR[:0]
	for _, s := range reqs {
		switch {
		case s.spec:
			s.register(t)
			s.r.spec, s.r.write = true, s.write
			if s.h.ordered && !s.insert {
				sh.Inc(obs.EvShipImage)
				s.consume(t, s.entryBuf()) // a read's entry buffer is the narrow window the reply filled
			}
			continue
		case s.upgrade && s.r.spec:
			s.acq.arm(acqUpgradeSpec, me, 0)
		case s.upgrade:
			s.acq.arm(acqUpgradeLease, me, s.r.leaseEnd)
		case s.write:
			s.acq.arm(acqLock, me, 0)
		default:
			s.acq.arm(acqLease, me, t.leaseEnd)
		}
		active = append(active, s)
	}
	conflict := false
	wrs := e.activeWR[:0]
	for len(active) > 0 && !conflict && !down {
		wrs = wrs[:0]
		for _, s := range active {
			h := &s.h
			wrs = append(wrs, sq.PostCAS(h.node, h.region, kvs.StateOffset(h.off), s.acq.old, s.acq.want))
			// Speculatively prefetch the entry in the same wave: the READ
			// executes after the CAS in post order, so a won CAS's image is
			// already covered by the lock/lease it installed.
			s.fuseWR = sq.PostRead(h.node, h.region, h.off, s.entryBuf())
		}
		sq.Poll()
		next := active[:0]
		for i, s := range active {
			h := &s.h
			wr := wrs[i]
			fuse := s.fuseWR
			s.fuseWR = nil
			cur, swapped, err := wr.Prev, wr.Swapped, wr.Err
			if err != nil {
				// Re-attempt with the bounded sync retry policy. The fused
				// image predates the retried CAS and must be discarded.
				fuse = nil
				cur, swapped, err = e.casRemote(h.node, h.region, kvs.StateOffset(h.off), s.acq.old, s.acq.want)
				if err != nil {
					down = true
					continue
				}
			}
			var now uint64
			if !swapped {
				now = e.w.Node.Clock.Read()
			}
			switch v, end := s.acq.step(sh, cur, swapped, now, delta); v {
			case acqConflict:
				conflict = true
			case acqAgain:
				next = append(next, s)
			default:
				s.acquired(t, end)
				if fuse != nil && fuse.Err == nil {
					// Consume the fused prefetch: the image is protected by the
					// lock or lease this wave's CAS installed or observed.
					s.consume(t, fuse.Dst)
				}
			}
		}
		active = next
	}
	e.activeWR = wrs[:0]
	e.activeSR = active[:0]
	sh.Observe(obs.PhaseAcquireRemote, int64(e.w.VClock.Now())-astart)
	if down {
		return t.nodeDown()
	}
	if conflict {
		return t.remoteConflict()
	}

	// ---- fetch: speculative reads and stragglers ---------------------------
	// An escalated attempt holds nothing yet: a record it finds write-locked
	// it reads again once it has waited, unless the record moved meanwhile (a
	// slot unlinked under the reader keeps its remover's lock for good).
	pstart := int64(e.w.VClock.Now())
	worst, lostIx := imgOK, (*stageReq)(nil) // lostIx: an erase's index row that turned out dead
	for again := true; again && !down; {
		for _, s := range reqs {
			if s.needFetch {
				h := &s.h
				s.entryWR = sq.PostRead(h.node, h.region, h.off, s.entryBuf())
			}
		}
		_, reachable := e.pollReads(sq)
		down, worst, again = !reachable, imgOK, false
		for _, s := range reqs {
			if wr := s.entryWR; wr != nil && !down {
				s.consume(t, wr.Dst)
			}
			s.entryWR = nil
			if s.verdict == imgBusy && t.escalated && !down {
				moved, err := e.waitOut(&s.h, s.ebuf[kvs.EntryStateWord])
				if down = err != nil; !down && !moved {
					s.needFetch, again = true, true
					continue
				}
				s.verdict = imgStale
			}
			worst = max(worst, s.verdict)
			if s.ixOf && s.verdict == imgNotFound {
				lostIx = s
			}
		}
	}
	sh.Observe(obs.PhasePrefetchRemote, int64(e.w.VClock.Now())-pstart)
	if !down {
		t.unstage(reqs)
	}
	switch {
	case down:
		return t.nodeDown()
	case worst == imgStale:
		return t.fail()
	case worst == imgBusy:
		return t.remoteConflict()
	case lostIx != nil:
		return t.indexRowMissing(lostIx.h.table, lostIx.base)
	case worst == imgNotFound:
		return ErrNotFound
	case worst == imgExists:
		return kvs.ErrExists
	}
	return nil
}

// acquired registers a won or shared acquisition — exclusive lock, fresh or
// shared lease ending at leaseEnd, or in-place upgrade — and queues the
// record for fetch (the fused prefetch posted alongside the CAS usually
// satisfies it in-wave).
func (s *stageReq) acquired(t *Tx, leaseEnd uint64) {
	if s.upgrade {
		// The shared lease (or unprotected speculative read) is now an
		// exclusive lock; re-fetch — the buffered value may predate a writer
		// that committed since it was read.
		s.r.write, s.r.spec, s.r.leaseEnd = true, false, 0
		s.needFetch = true
		return
	}
	s.register(t)
	s.r.write, s.r.leaseEnd = s.write, leaseEnd
}

// register stages the record with the transaction, so commit and abort both
// cover it, and queues the fetch READ.
func (s *stageReq) register(t *Tx) {
	s.r = t.e.getRec()
	s.r.recHandle = s.h
	t.rIndex[refKey{s.h.table, s.h.key}] = s.r
	t.remotes = append(t.remotes, s.r)
	s.needFetch = true
}

// consume checks a fetched entry image and moves it into the record. A
// verdict about the one record (dead row, live insert target) withdraws it
// from the staged set and leaves the transaction usable; the others fail the
// batch (stageBatch folds the verdicts).
func (s *stageReq) consume(t *Tx, words []uint64) {
	r := s.r
	s.needFetch = false
	s.verdict = s.h.check(words, &r.recImage, s.vw, s.insert, s.spec)
	if s.spec && (s.verdict == imgOK || s.verdict == imgBusy) {
		t.e.w.Obs.Inc(obs.EvSpecRead)
	}
	switch s.verdict {
	case imgOK:
		if s.insert {
			r.buf = append(r.buf[:0], s.val...)
			r.insert, r.dirty = true, true
		}
		if s.erase {
			r.erase = true
			t.removals = append(t.removals, removalOp{node: r.node, region: r.region,
				table: r.table, part: r.part, key: r.key,
				deadIncVer: kvs.PackIncVer(r.inc+1, r.version+1)})
		}
	case imgStale:
		// Deleted or reused entry: drop the cached chain so the retry
		// re-resolves the location.
		t.e.invalidate(&s.h)
	}
}

// unstage withdraws from the staged set the records of the batch whose image
// gave an answer about the one record — a dead row, a live insert target —
// releasing their locks in one wave. It runs once every completion of the
// batch has been consumed: its wave recycles the queue's work requests.
func (t *Tx) unstage(reqs []*stageReq) {
	t.cops = t.cops[:0]
	for _, s := range reqs {
		r := s.r
		if r == nil || (s.verdict != imgExists && s.verdict != imgNotFound) {
			continue
		}
		if r.locked() {
			t.unlock(r)
		}
		s.r = nil
		delete(t.rIndex, refKey{r.table, r.key})
		t.remotes = slices.DeleteFunc(t.remotes, func(x *remoteRec) bool { return x == r })
		t.e.recFree = append(t.e.recFree, r)
	}
	t.postWave(obs.StageRelease)
}
