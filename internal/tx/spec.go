package tx

import (
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// Speculative (OCC) read validation — the commit half of the speculative
// read arm (PolicySpeculative, or cold-bucket routes under PolicyAdaptive).
//
// A speculative record was fetched with one unprotected READ; nothing stops
// a writer from committing a new version between that fetch and our commit.
// validateSpeculative runs inside the HTM region, after the body and the
// lease confirmations and before the WAL write / XEND, and checks that every
// speculative record still carries the incarnation|version observed at fetch
// with no live exclusive lock. Any mismatch aborts the region with
// abortCodeSpec, which Execute turns into a whole-transaction retry — the
// staged buffers are stale by construction.
//
// Two layers cooperate, and both matter:
//
//   - A doorbell-batched wave of 2-word header READs
//     models the wire cost of re-reading every version word in one round
//     trip and exposes the verbs to fault injection — a persistently
//     unreachable host turns the abort into ErrNodeDown via Tx.specDown.
//
//   - The AUTHORITATIVE comparison uses htx.Read on the same words. For
//     records homed on peer nodes these are reads of the peer's arena
//     words, which enrolls the entry's header line in OUR HTM read set:
//     emulated strong atomicity then aborts this region if a writer
//     publishes to that line between our poll and our XEND, closing the
//     validate→commit window. This is the same license Figure 6 uses for
//     local reads of the state word — validation and XEND become one atomic
//     instant, which is the transaction's serialization point.
//
// Why an unchanged version word proves the buffered value is safe: every
// committed write path — HTM-local Write, commitRemotes' write-back, the
// fallback's publish — bumps the 32-bit version while holding write
// protection (HTM write set or the state-word lock), and multi-line value
// updates publish value lines before releasing the state word, ordered by the
// connection (post order, and a flush behind any failure). So a reader that
// observed `version v, state unlocked` at fetch and observes `version v, state
// not write-locked` here saw a stable image; aborting lock holders never write
// values, so a lock that came and went without a version bump is harmless.
func (t *Tx) validateSpeculative(htx *htm.Txn) {
	nspec := 0
	for _, r := range t.remotes {
		if r.spec {
			nspec++
		}
	}
	if nspec == 0 {
		return
	}
	e := t.e
	sh := e.w.Obs
	vstart := int64(e.w.VClock.Now())
	if cap(e.hdrBuf) < nspec*kvs.EntryHeaderWords {
		e.hdrBuf = make([]uint64, nspec*kvs.EntryHeaderWords)
	}
	hdr := e.hdrBuf[:nspec*kvs.EntryHeaderWords]

	// One doorbell-batched wave of header re-READs (cost + fault model); a
	// host that stays unreachable through the bounded retries means the
	// transaction must surface ErrNodeDown, not retry forever.
	sq := e.sendq(obs.StageValidate)
	i := 0
	for _, r := range t.remotes {
		if !r.spec {
			continue
		}
		dst := hdr[i*kvs.EntryHeaderWords : (i+1)*kvs.EntryHeaderWords]
		// The incver‖state header; for ordered entries (whose slot can be
		// recycled for another key) the key+incver words instead.
		start := kvs.IncVerOffset(r.off)
		if r.ordered {
			start = r.off + kvs.EntryKeyWord
		}
		sq.PostRead(r.node, r.region, start, dst)
		i++
	}
	_, reachable := e.pollReads(sq)
	down := !reachable

	// Authoritative check: HTM reads of the same words, enrolling each
	// header line in this region's read set (strong atomicity closes the
	// poll→XEND window).
	var fails int64
	if !down {
		for _, r := range t.remotes {
			if !r.spec {
				continue
			}
			arena := e.rt.arenaOf(r.node, r.region)
			incver := htx.Read(arena, kvs.IncVerOffset(r.off))
			state := htx.Read(arena, kvs.StateOffset(r.off))
			key := r.key
			if r.ordered {
				// The slot could also have been recycled for another key.
				key = htx.Read(arena, r.off+kvs.EntryKeyWord)
			}
			if r.moved(key, incver, state) {
				fails++
				// Adaptive feedback: a validation failure is the spec arm's
				// defining loss — heat the bucket so future reads lease it.
				e.feedConflict(&r.recHandle, 1)
			}
		}
	}
	sh.Observe(obs.PhaseValidate, int64(e.w.VClock.Now())-vstart)
	if down {
		t.specDown = true
		htx.Abort(abortCodeSpec)
	}
	if fails > 0 {
		sh.Add(obs.EvSpecValidateFail, fails)
		htx.Abort(abortCodeSpec)
	}
}
