package nvram

// A redo record is a transaction's commit record, in one format wherever it
// is kept. Under replication it is the payload of the FaRM-style commit-backup
// protocol: after a transaction's HTM region commits, its whole write-set is
// serialized into one redo record and appended — with one-sided log-append
// WRITEs — to a redo log hosted on every backup of every partition the
// transaction touched. Without replication it is the write-ahead record the
// region appends to its own NVRAM log, with epoch and gen 0 and part -1 for
// a replicated table's row, which crash recovery redoes. Shipping the FULL write-set to every destination
// (rather than each backup's slice of it) is what makes a partially
// replicated crash recoverable: any single surviving log tail reconstructs
// the whole transaction, so the promote path can re-apply the foreign
// partitions' writes to their live owners and keep cross-partition
// transactions atomic.
//
// Wire format, in words:
//
//	[txid, home<<63 | k,
//	  (part, epoch, table, key, inc<<32|version, gen, vw,
//	   val[0..vw-1]) × k]
//
// The home bit is the sender's word on its earlier records: every update they
// carry has been written to its primary, a dead one's memory included
// (MarkRedoHome). The backup's sink may
// then apply those records to its replica shards and truncate them as it
// appends this one.
//
// per update: the home partition of the key, the partition's view epoch as
// observed by the appender (the backup's fence compares it against the
// current view and rejects stale appends — zombie containment), the logical
// table, the key, the new post-commit version, the key's delete generation
// as observed by the appender, and the value words.
//
// Deletes themselves never appear in the redo stream — they are shipped
// store ops applied immediately to the primary and every replica shard. The
// generation word is what keeps the two streams ordered: every delete bumps
// the key's generation, updates are stamped with the generation current at
// commit, and a drain refuses records from an older generation, so a redo
// record logged before a delete can never resurrect the key (or its stale
// value, if the key was re-inserted since).

// RedoUpdate is one write of a redo record.
type RedoUpdate struct {
	Part    int    // home partition of the key
	Epoch   uint64 // partition view epoch observed by the appender
	Table   int    // logical table ID
	Key     uint64
	Version uint32 // post-commit version (apply iff > current)
	Gen     uint64 // key's delete generation (apply iff current)
	Val     []uint64

	// Inc is the post-commit incarnation for ordered-table rows (0 for
	// unordered rows, whose entries have no liveness). Packed into the high
	// half of the version word on the wire. A drain adopts only its
	// PARITY — replica incarnation counters diverge from the primary's, so
	// the absolute number is meaningless across copies; odd means the row
	// committed live, even means it committed erased.
	Inc uint32
}

// redoUpdateHeaderWords is an update's header size; its last word is the
// value length.
const redoUpdateHeaderWords = 7

// RedoWords returns the encoded size in words of a record with the given
// updates (for pre-sizing buffers and cost accounting).
func RedoWords(ups []RedoUpdate) int {
	n := 2
	for i := range ups {
		n += redoUpdateHeaderWords + len(ups[i].Val)
	}
	return n
}

// EncodeRedo serializes a redo record into buf (reallocating if needed) and
// returns the encoded slice.
func EncodeRedo(buf []uint64, txid uint64, ups []RedoUpdate) []uint64 {
	n := RedoWords(ups)
	if cap(buf) < n {
		buf = make([]uint64, 0, n)
	}
	buf = buf[:0]
	buf = append(buf, txid, uint64(len(ups)))
	for i := range ups {
		u := &ups[i]
		buf = append(buf, uint64(u.Part), u.Epoch, uint64(u.Table), u.Key,
			uint64(u.Inc)<<32|uint64(u.Version), u.Gen, uint64(len(u.Val)))
		buf = append(buf, u.Val...)
	}
	return buf
}

// redoHome is the home bit of a record's count word.
const redoHome = 1 << 63

// MarkRedoHome sets the home bit of an encoded record: its sender's earlier
// records are home.
func MarkRedoHome(rec []uint64) { rec[1] |= redoHome }

// RedoHome reports whether an encoded record carries the home bit.
func RedoHome(rec []uint64) bool { return len(rec) > 1 && rec[1]&redoHome != 0 }

// RedoIter reads a redo record where it lies: one update header is decoded
// per Next, and the update's Val aliases the frame, so neither the updates
// nor their values are materialised. IterRedo validates the whole frame before
// the first update is handed out — a reader acts on update i only when every
// update of the record is well formed, as it did when the record was decoded
// into a slice first.
type RedoIter struct {
	TxID uint64

	rec  []uint64
	off  int // next update's header
	left int // updates not yet returned
}

// IterRedo checks rec's framing and returns an iterator over its updates;
// ok is false on a malformed frame (corrupt count, truncated tail, a value
// length the frame cannot hold), whose iterator yields nothing.
func IterRedo(rec []uint64) (it RedoIter, ok bool) {
	if len(rec) < 2 {
		return it, false
	}
	// An update needs at least its header: a count the frame cannot hold is
	// a corrupt length word, not a short tail. Compared in uint64 space, as
	// the value lengths below are: a corrupt word cast through int() can wrap
	// negative and sneak past an int-typed bounds check.
	if rec[1]&^redoHome > uint64((len(rec)-2)/redoUpdateHeaderWords) {
		return it, false
	}
	k := int(rec[1] &^ redoHome)
	off := 2
	for i := 0; i < k; i++ {
		if off+redoUpdateHeaderWords > len(rec) {
			return it, false
		}
		vw := rec[off+redoUpdateHeaderWords-1]
		if vw > uint64(len(rec)-off-redoUpdateHeaderWords) {
			return it, false
		}
		off += redoUpdateHeaderWords + int(vw)
	}
	return RedoIter{TxID: rec[0], rec: rec, off: 2, left: k}, true
}

// Next decodes the next update; ok is false when the record is exhausted.
// u.Val is valid for as long as the frame passed to IterRedo is.
func (it *RedoIter) Next() (u RedoUpdate, ok bool) {
	if it.left == 0 {
		return u, false
	}
	h := it.rec[it.off : it.off+redoUpdateHeaderWords]
	val := it.off + redoUpdateHeaderWords
	it.off = val + int(h[redoUpdateHeaderWords-1])
	it.left--
	return RedoUpdate{
		Part:    int(h[0]),
		Epoch:   h[1],
		Table:   int(h[2]),
		Key:     h[3],
		Version: uint32(h[4]),
		Inc:     uint32(h[4] >> 32),
		Gen:     h[5],
		Val:     it.rec[val:it.off],
	}, true
}
