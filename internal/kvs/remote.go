package kvs

import (
	"drtm/internal/memory"
	"drtm/internal/rdma"
)

// Entry is a decoded key-value entry as fetched by a remote reader.
type Entry struct {
	Key         uint64
	Incarnation uint32
	Version     uint32
	State       uint64
	Value       []uint64
}

// Loc is a remotely usable record location: the entry offset inside the
// owner's table arena plus the lossy incarnation the locator observed, for
// incarnation checking on the subsequent data read.
type Loc struct {
	Off   memory.Offset
	Lossy uint64
}

// LookupRemote walks key's bucket chain with one-sided RDMA READs (one READ
// fetches a whole 8-slot bucket, Section 5.2) and returns the entry
// location. It never touches the host CPU. If cache is non-nil the walk
// consults and fills the location cache, which turns repeat lookups into
// zero-RDMA operations (Section 5.3).
func (t *Table) LookupRemote(qp *rdma.QP, cache *LocationCache, key uint64) (Loc, bool) {
	var buf [BucketWords]uint64
	loc, ok, err := t.LookupRemoteInto(qp, cache, key, &buf)
	if err != nil {
		panic(err) // fault-free harness; fault-aware callers use LookupRemoteInto
	}
	return loc, ok
}

// LookupRemoteInto is LookupRemote for fault-aware callers, reading the
// chain's buckets into the caller's buffer: an injected verb fault or a
// crashed host surfaces as the error instead of a panic, and the buffer
// escapes to the verb and the cache, so a caller on a hot path keeps one
// instead of allocating it per lookup.
func (t *Table) LookupRemoteInto(qp *rdma.QP, cache *LocationCache, key uint64, buf *[BucketWords]uint64) (Loc, bool, error) {
	idx := t.bucketOf(key)
	off := t.MainBucketOffset(idx)
	tag := mainTag(idx)

	for depth := 0; depth < maxChain; depth++ {
		if !cache.get(qp.Obs, tag, buf) {
			if err := qp.TryRead(t.cfg.Node, t.cfg.RegionID, off, buf[:]); err != nil {
				return Loc{}, false, err
			}
			cache.put(tag, buf[:])
		}

		loc, found, next := decodeBucket(buf[:], key)
		if found {
			return loc, true, nil
		}
		if next == 0 {
			return Loc{}, false, nil
		}
		off = next
		tag = indirTag(uint64(next))
	}
	return Loc{}, false, nil
}

// decodeBucket scans one bucket image for key: the entry's location if the
// bucket holds it, and the chain's next indirect bucket offset (0 at chain
// end). Shared by the sync chain walk and the batched lockstep walk.
func decodeBucket(words []uint64, key uint64) (loc Loc, found bool, next memory.Offset) {
	for s := 0; s < SlotsPerBucket; s++ {
		w0 := words[s*SlotWords]
		switch SlotType(w0) {
		case TypeEntry:
			if words[s*SlotWords+1] == key {
				return Loc{Off: SlotOffset(w0), Lossy: SlotLossyInc(w0)}, true, 0
			}
		case TypeHeader:
			next = SlotOffset(w0)
		}
	}
	return Loc{}, false, next
}

// maxChain bounds bucket-chain walks against corrupted links.
const maxChain = 64

// ReadEntryRemoteE fetches and decodes the entry at loc with one one-sided
// READ, verb faults surfaced as errors. ok is false when incarnation checking
// fails — the entry died or was reused since the location was cached — in
// which case the caller should invalidate and re-look-up through the host
// structures.
func (t *Table) ReadEntryRemoteE(qp *rdma.QP, key uint64, loc Loc) (Entry, bool, error) {
	words := make([]uint64, EntryValueWord+t.cfg.ValueWords)
	if err := qp.TryRead(t.cfg.Node, t.cfg.RegionID, loc.Off, words); err != nil {
		return Entry{}, false, err
	}
	e, ok := t.DecodeEntry(words, key, loc)
	return e, ok, nil
}

// GetRemote is the full remote GET: locate (through the cache when given)
// then read, with incarnation-check retry. It is the operation measured in
// Figure 10(b)/(c).
func (t *Table) GetRemote(qp *rdma.QP, cache *LocationCache, key uint64) (Entry, bool) {
	e, ok, err := t.GetRemoteE(qp, cache, key)
	if err != nil {
		panic(err)
	}
	return e, ok
}

// GetRemoteE is GetRemote with verb faults surfaced as errors.
func (t *Table) GetRemoteE(qp *rdma.QP, cache *LocationCache, key uint64) (Entry, bool, error) {
	var buf [BucketWords]uint64
	for attempt := 0; attempt < 3; attempt++ {
		loc, ok, err := t.LookupRemoteInto(qp, cache, key, &buf)
		if err != nil {
			return Entry{}, false, err
		}
		if !ok {
			// A cached chain may be stale (e.g. the key moved into a new
			// indirect bucket): drop it and retry uncached once.
			if cache != nil {
				cache.invalidateChain(qp.Obs, t, key)
				cache = nil
				continue
			}
			return Entry{}, false, nil
		}
		e, ok, err := t.ReadEntryRemoteE(qp, key, loc)
		if err != nil {
			return Entry{}, false, err
		}
		if ok {
			return e, true, nil
		}
		cache.invalidateChain(qp.Obs, t, key)
	}
	return Entry{}, false, nil
}

// StateOffset returns the arena offset of the Figure 4 state word of the
// entry at off — the word remote transactions CAS to lock/lease the record.
func StateOffset(off memory.Offset) memory.Offset { return off + EntryStateWord }

// IncVerOffset returns the arena offset of the incarnation|version word.
func IncVerOffset(off memory.Offset) memory.Offset { return off + EntryIncVerWord }

// ValueOffset returns the arena offset of the first value word.
func ValueOffset(off memory.Offset) memory.Offset { return off + EntryValueWord }
