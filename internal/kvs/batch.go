package kvs

import (
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// This file is the batched remote access path on top of the rdma async verb
// engine: many keys' bucket-chain walks advance in lockstep, with one polled
// doorbell batch per chain level instead of one blocking round trip per
// bucket. Cached buckets are walked without touching the fabric at all, so a
// warm location cache still turns a lookup into zero RDMA ops.

// LookupReq is one key's slot in a batched lookup. The caller fills Table,
// Cache (may be nil) and Key; LookupBatch fills Loc/Found or Err. A verb
// fault fails this request and those whose READs the connection flushed
// behind it (rdma.ErrFlushed: same host, never attempted) — the walks on
// other hosts complete — and is not retried internally; the transaction layer
// owns retry policy. Neither error says anything about the key.
type LookupReq struct {
	Table *Table
	Cache *LocationCache
	Key   uint64

	Loc   Loc
	Found bool
	Err   error

	// The chain walk's in-flight state lives in the request, so a caller
	// that recycles its requests makes the walk allocation-free: the next
	// bucket's location and cache tag, the buckets consumed so far, the
	// bucket image (cache copy or READ destination) and the posted READ.
	off   memory.Offset
	tag   uint64
	depth int
	buf   [BucketWords]uint64
	wr    *rdma.WR
}

// step consumes the bucket image in buf: it either resolves the request
// (entry found, or chain exhausted → not found) and returns true, or advances
// the walk to the next chain bucket and returns false.
func (r *LookupReq) step() bool {
	r.depth++
	loc, found, next := decodeBucket(r.buf[:], r.Key)
	if found {
		r.Loc, r.Found = loc, true
		return true
	}
	if next == 0 {
		return true
	}
	r.off = next
	r.tag = indirTag(uint64(next))
	return false
}

// walkCached advances the walk through cached buckets without touching the
// fabric, counting its probes on sh; a fully cached chain resolves here with
// zero work requests. It returns true once the request is resolved and false
// when the next bucket has to be READ.
func (r *LookupReq) walkCached(sh *obs.Shard) bool {
	for r.depth < maxChain {
		if !r.Cache.get(sh, r.tag, &r.buf) {
			return false
		}
		if r.step() {
			return true
		}
	}
	return true
}

// LookupBatch resolves every request's bucket chain concurrently: each round
// advances all unresolved walks one level — through the location cache when
// the bucket is cached, otherwise by posting a bucket READ — and polls the
// outstanding READs as one doorbell batch. The requests may target different
// tables and nodes; sq's window bounds how many READs overlap. reqs is the
// walk's work list: LookupBatch reorders it.
func LookupBatch(sq *rdma.SendQueue, reqs []*LookupReq) {
	for _, r := range reqs {
		idx := r.Table.bucketOf(r.Key)
		r.off, r.tag, r.depth = r.Table.MainBucketOffset(idx), mainTag(idx), 0
	}
	// Each pass compacts the walks that go on to the front of the list.
	for active := reqs; len(active) > 0; {
		pending := active[:0]
		for _, r := range active {
			if !r.walkCached(sq.QP().Obs) {
				t := r.Table
				r.wr = sq.PostRead(t.cfg.Node, t.cfg.RegionID, r.off, r.buf[:])
				pending = append(pending, r)
			}
		}
		if len(pending) == 0 {
			return
		}
		sq.Poll()
		active = pending[:0]
		for _, r := range pending {
			if err := r.wr.Err; err != nil {
				r.Err = err
				continue
			}
			r.Cache.put(r.tag, r.buf[:])
			if !r.step() {
				active = append(active, r)
			}
		}
	}
}

// DecodeEntry decodes a fetched entry image (any window at loc.Off spanning
// at least EntryValueWord+ValueWords — e.g. a full EntryImageWords read that
// also carries the version chain).
// Value is bounded to the table's ValueWords regardless of the window size.
// ok is false when incarnation checking fails — the entry died or was reused
// since the location was observed — in which case the caller should
// invalidate the cached chain and re-resolve the location.
func (t *Table) DecodeEntry(words []uint64, key uint64, loc Loc) (Entry, bool) {
	e := Entry{
		Key:         words[EntryKeyWord],
		Incarnation: Incarnation(words[EntryIncVerWord]),
		Version:     Version(words[EntryIncVerWord]),
		State:       words[EntryStateWord],
		Value:       words[EntryValueWord : EntryValueWord+t.cfg.ValueWords],
	}
	if !Live(e.Incarnation) || e.Key != key ||
		uint64(e.Incarnation)&slotLossyMask != loc.Lossy {
		return Entry{}, false
	}
	return e, true
}

// Invalidate explicitly drops every cached bucket on key's chain from c.
// The location cache normally needs no invalidation protocol (stale
// locations are caught by incarnation checking), but a caller that has just
// *observed* staleness uses this to stop replaying the dead location from
// cache instead of re-fetching the whole chain remotely. The key→bucket
// mapping needs the table's geometry, which is why the API lives on Table
// rather than on the cache. The probes and drops count on qp's shard, like
// a lookup's.
func (t *Table) Invalidate(qp *rdma.QP, c *LocationCache, key uint64) {
	c.invalidateChain(qp.Obs, t, key)
}
