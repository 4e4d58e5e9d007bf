package tx

import (
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Batched Start phase (REMOTE_READ / REMOTE_WRITE of Figure 5, pipelined).
//
// The serial path paid ~3 round trips per remote record: lookup READ(s),
// lock/lease CAS, prefetch READ — each blocking on the fabric. This file
// splits staging into gather/issue/complete over the rdma async verb
// engine: independent records' verbs of the same stage are posted together
// and polled as doorbell batches, so an N-record Start phase costs roughly
// max-of-round-trips per stage instead of the sum. Dependent verbs (a
// record's CAS after its lookup, a takeover CAS after seeing an expired
// lease) still order across polls, exactly as completions gate reposting on
// a real QP.
//
// Two refinements ride the same pipeline:
//
//   - The lock/lease CAS and the value prefetch READ are fused into ONE
//     posted wave: each CAS is immediately followed by its record's entry
//     READ in post order, so a successful CAS's image is already covered by
//     the fresh lock/lease when the READ executes. A failed CAS discards
//     the image and re-arms both verbs; a CAS that fell back to the sync
//     retry path discards it too (the sync CAS postdates the READ). This
//     saves the separate prefetch round trip per record.
//
//   - Read-set records routed to the speculative arm (PolicySpeculative,
//     or a cold bucket under PolicyAdaptive) skip the CAS stage entirely:
//     one entry READ fetches `version ‖ state ‖ value`, and the observed
//     version is re-validated at commit time (see spec.go). A record
//     observed write-locked at fetch is a conflict — its value may be
//     mid-update.
//
// The per-record lock/lease decisions are the acquirer state machine and the
// image checks recHandle.check (access.go) — the same ones read-only
// transactions and the fallback drive serially. Ordered records join the same
// waves after their shipped lookup (Section 6.5: the tree walk has no
// one-sided path, but the entry layout is shared, so locking, prefetching,
// validation and write-back use the same verbs). Conflicts and node failures
// are detected per completion and resolve after the wave is fully processed,
// so every lock that was actually acquired is registered and released on
// abort.

// Access declares one record access for batched staging.
type Access struct {
	Table int
	Key   uint64
	Write bool
}

// Stage declares a set of accesses at once. Local records are declared for
// the HTM region; remote records run the batched gather/issue/complete
// pipeline, overlapping their lookup READs, lock/lease CASes and prefetch
// READs across records. Semantically equivalent to calling R/W per access.
func (t *Tx) Stage(accs ...Access) error {
	e := t.e
	if e.seen == nil {
		e.seen = make(map[refKey]*stageReq)
	}
	reqs := e.reqScr[:0]
	var err error
	for _, a := range accs {
		node, region, part := e.route(a.Table, a.Key)
		t.stampView(part)
		if node == t.e.w.Node.ID {
			t.declareLocal(a.Table, region, part, a.Key, a.Write)
			continue
		}
		write := a.Write || t.policy == PolicyExclusive
		k := refKey{a.Table, a.Key}
		if s, ok := e.seen[k]; ok {
			if write && !s.write {
				s.write = true // strengthen before issue: free upgrade
				s.spec = false
			}
			continue
		}
		var s *stageReq
		if s, err = t.gatherRemote(a.Table, a.Key, node, region, part, write); err != nil {
			break
		}
		if s != nil {
			e.seen[k] = s
			reqs = append(reqs, s)
		}
	}
	if err == nil && len(reqs) > 0 {
		err = t.stageBatch(reqs)
	}
	clear(e.seen)
	e.putReqs(reqs)
	e.reqScr = reqs[:0]
	return err
}

// stageRemote stages one remote record — the serial entry point kept for
// R/W and Probe.Stage; a batch of one runs the same pipeline.
func (t *Tx) stageRemote(table int, key uint64, node, region, part int, write bool) error {
	s, err := t.gatherRemote(table, key, node, region, part, write)
	if err != nil || s == nil {
		return err
	}
	return t.stageOne(s)
}

func (t *Tx) stageOne(s *stageReq) error {
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
	// of Tx.WInsert / Tx.Erase: the locked entry must be the key's staged dead
	// slot (flipped live at commit) resp. a live row (flipped dead at commit).
	insert, erase bool
	val           []uint64

	// resolved: the handle's location is already known (upgrades, and ordered
	// records, whose lookup shipped to the host at gather time).
	resolved bool
	lr       kvs.LookupReq

	vw    int // value words, for the entry-read buffer
	depth int // the store's version-chain depth (0 = chains off)

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

// entryBuf returns the request's entry-read destination: write stages on
// chained tables fetch the full image — the extra words carry the tail stamp
// the commit-time retire needs — in the same post-lock READ; everything else
// keeps the narrow header+value read. Sized at post time, after Stage's dedup
// pass may have strengthened s.write.
func (s *stageReq) entryBuf() []uint64 {
	n := kvs.EntryValueWord + s.vw
	if s.write {
		n = kvs.EntryImageWords(s.vw, s.depth)
	}
	if cap(s.ebuf) < n {
		s.ebuf = make([]uint64, n)
	}
	return s.ebuf[:n]
}

// newReq builds the pipeline request for a handle.
func (t *Tx) newReq(h recHandle, write bool) *stageReq {
	s := t.e.getReq()
	s.h, s.write = h, write
	s.vw, s.depth = t.e.rt.Meta(h.table).ValueWords, t.e.chainDepth(&h)
	return s
}

// gatherRemote dedupes one remote access against the staged set and builds
// its pipeline request; a nil request means the access is already satisfied.
// Ordered records resolve here, by one synchronous shipped lookup each.
func (t *Tx) gatherRemote(table int, key uint64, node, region, part int, write bool) (*stageReq, error) {
	e := t.e
	if r, ok := t.rIndex[refKey{table, key}]; ok {
		if !write || r.write {
			return nil, nil
		}
		s := t.newReq(r.recHandle, true)
		s.r, s.upgrade, s.resolved = r, true, true
		return s, nil
	}
	h := recHandle{table: table, node: node, region: region, part: part, key: key,
		ordered: e.rt.Meta(table).Kind == Ordered}
	if h.ordered {
		if found, err := e.resolve(&h); err != nil {
			return nil, t.nodeDown()
		} else if !found {
			return nil, ErrNotFound
		}
	}
	s := t.newReq(h, write)
	s.resolved = h.ordered
	s.spec = !write && e.routeRead(t.policy, &s.h)
	return s, nil
}

// gatherInsert builds the request of a remote transactional insert: the
// structural half ships to the host (EnsureDead), and the dead slot it
// returns is then locked and verified like any write. The locked slot cannot
// be recycled or resurrected under us, so commitRemotes flips it live with a
// plain release-phase write.
func (t *Tx) gatherInsert(table int, key uint64, node, region, part int, val []uint64) (*stageReq, error) {
	h := recHandle{table: table, node: node, region: region, part: part, key: key, ordered: true}
	if err := t.e.ensureEntry(&h); err != nil {
		if err == ErrNodeDown {
			return nil, t.nodeDown()
		}
		return nil, err // kvs.ErrExists (key live) or kvs.ErrFull
	}
	s := t.newReq(h, true)
	s.insert, s.val, s.resolved = true, val, true
	return s, nil
}

// stageBatch runs the pipelined stages — location lookup, fused lock/lease
// CAS + prefetch, then a fetch pass for speculative reads and stragglers —
// for all requests, polling each stage's outstanding verbs as doorbell
// batches.
func (t *Tx) stageBatch(reqs []*stageReq) error {
	e := t.e
	startv := int64(e.w.VClock.Now())
	defer func() { t.vLock += int64(e.w.VClock.Now()) - startv }()
	sh := e.w.Obs
	sq := e.sendq()

	// ---- lookup: batched bucket-chain walks --------------------------------
	lstart := int64(e.w.VClock.Now())
	lreqs := e.lreqScr[:0]
	for _, s := range reqs {
		if !s.resolved {
			h := &s.h
			s.lr = kvs.LookupReq{Table: e.hashTable(h), Cache: e.cacheFor(h.node, h.region), Key: h.key}
			lreqs = append(lreqs, &s.lr)
		}
	}
	if len(lreqs) > 0 {
		kvs.LookupBatch(sq, lreqs)
	}
	e.lreqScr = lreqs[:0]
	down, notFound := false, false
	for _, s := range reqs {
		switch {
		case s.resolved:
		case s.lr.Err != nil:
			down = true
		case !s.lr.Found:
			notFound = true
		default:
			s.h.off, s.h.lossy = s.lr.Loc.Off, uint16(s.lr.Loc.Lossy)
		}
	}
	sh.Observe(obs.PhaseLookupRemote, int64(e.w.VClock.Now())-lstart)
	if down {
		return t.nodeDown()
	}
	if notFound {
		return ErrNotFound
	}

	// ---- acquire: fused lock/lease CAS + prefetch READ waves ---------------
	// Speculative reads acquire nothing: they are registered directly and
	// fetched in the final stage with a single entry READ.
	astart := int64(e.w.VClock.Now())
	me := uint8(e.w.Node.ID)
	delta := e.rt.C.Delta()
	active := e.activeSR[:0]
	for _, s := range reqs {
		switch {
		case s.spec:
			s.register(t)
			s.r.spec = true
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
				if !s.write {
					// A lease read blocked by a conflicting writer: heat the
					// bucket (adaptive feedback — writer activity here).
					e.feedConflict(h, 1)
				}
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
	pstart := int64(e.w.VClock.Now())
	fetches := 0
	for _, s := range reqs {
		if s.needFetch {
			h := &s.h
			s.entryWR = sq.PostRead(h.node, h.region, h.off, s.entryBuf())
			fetches++
		}
	}
	if fetches > 0 {
		sq.Poll()
	}
	worst := imgOK
	for _, s := range reqs {
		if wr := s.entryWR; wr != nil {
			s.entryWR = nil
			if wr.Err != nil {
				down = true
				continue
			}
			s.consume(t, wr.Dst)
		}
		worst = max(worst, s.verdict)
	}
	sh.Observe(obs.PhasePrefetchRemote, int64(e.w.VClock.Now())-pstart)
	switch {
	case down:
		return t.nodeDown()
	case worst == imgStale:
		return t.fail()
	case worst == imgBusy:
		return t.remoteConflict()
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
		// Half-weight adaptive feedback: an upgrade signals write intent on
		// the bucket, a weaker hotness cue than an actual conflict.
		t.e.feedConflict(&s.h, 0.5)
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
	case imgBusy:
		// A writer is mid-commit: the value may be half-written. Unlike a
		// lease, a speculative read cannot wait it out here without a lock.
		t.e.feedConflict(&s.h, 1)
	default:
		t.unstage(r)
	}
}

// unstage withdraws one record from the staged set, dropping its own lock.
func (t *Tx) unstage(r *remoteRec) {
	if r.write {
		t.unlockRemote(r)
	}
	delete(t.rIndex, refKey{r.table, r.key})
	for i, x := range t.remotes {
		if x == r {
			t.remotes = append(t.remotes[:i], t.remotes[i+1:]...)
			t.e.recFree = append(t.e.recFree, r)
			return
		}
	}
}
