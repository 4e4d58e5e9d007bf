package kvs

import "drtm/internal/memory"

// slots hands out the fixed-width slots of one arena range — a shard's
// entries, or a table's indirect buckets. A slot given back is handed out
// again first, the most recently freed one first; otherwise the lowest slot
// never handed out, so a shard fills its arena from the bottom. That is the
// order a stack pre-filled with every slot, lowest on top, would give, with
// no stack as long as the range: recycled holds only the slots given back.
// The owning shard's mu guards it.
type slots struct {
	base     memory.Offset
	width    int
	limit    int // slots in the range
	used     int // slots handed out fresh so far
	recycled []memory.Offset
}

// alloc returns a slot's offset, or false when all limit are in use.
func (s *slots) alloc() (memory.Offset, bool) {
	if n := len(s.recycled); n > 0 {
		off := s.recycled[n-1]
		s.recycled = s.recycled[:n-1]
		return off, true
	}
	if s.used == s.limit {
		return 0, false
	}
	off := s.base + memory.Offset(s.used*s.width)
	s.used++
	return off, true
}

// free gives a slot back.
func (s *slots) free(off memory.Offset) { s.recycled = append(s.recycled, off) }
