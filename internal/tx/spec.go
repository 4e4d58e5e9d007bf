package tx

import (
	"slices"

	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// Speculative (OCC) read validation — the commit half of the speculative
// read arm (PolicyAdaptive until a transaction escalates).
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
// Two layers cooperate: a doorbell-batched wave of header READs
// (Executor.rereadHeaders) models the wire cost and draws the verbs' faults — a
// host that stays unreachable turns the abort into ErrNodeDown via Tx.specDown
// — and the AUTHORITATIVE comparison is htx.Read of the same words in the
// peer's arena, which enrolls each header line in OUR read set: emulated strong
// atomicity aborts the region if a writer publishes to the line before XEND, so
// validation and XEND are one instant, the serialization point (the license
// Figure 6 uses for the state word). An unchanged version vouches for the
// buffered value because every committed write bumps it under write protection,
// value lines first (DESIGN.md, "Speculative read arm").
func (t *Tx) validateSpeculative(htx *htm.Txn) {
	spec := slices.ContainsFunc(t.remotes, func(r *remoteRec) bool { return r.spec })
	if !spec {
		return
	}
	e := t.e
	sh := e.w.Obs
	vstart := int64(e.w.VClock.Now())

	// One doorbell-batched wave of header re-READs (cost + fault model; the
	// wave a read-only confirmation runs); a host that stays unreachable
	// through the bounded retries means the transaction must surface
	// ErrNodeDown, not retry forever.
	_, reachable := e.rereadHeaders(t.remotes)
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
