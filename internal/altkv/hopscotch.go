package altkv

import (
	"errors"
	"sync"

	"drtm/internal/memory"
	"drtm/internal/rdma"
)

// Hopscotch is the FaRM-KV baseline: hopscotch hashing with a neighborhood
// of 8. A remote GET READs the whole neighborhood (8 consecutive slots) in
// one one-sided READ — hence the ~1.0 average READs per lookup in Table 4 —
// at the cost of a complicated, cache-hostile insert (displacements
// gradually refine key locations, Section 5.4).
//
// Two variants per the paper:
//
//   - Inline (FaRM-KV/I): the value lives in the slot; lookup needs no
//     second READ but every neighborhood READ hauls 8 values.
//   - Offset (FaRM-KV/O): the slot stores an offset; a hit costs one more
//     READ of just the value.
//
// Slot layout (inline):  [key | version | value...]   (line-aligned)
// Slot layout (offset):  [key | version | entryOff | pad...]
// Keys are validated directly; per-line seqlock versions of the arena stand
// in for FaRM's per-cacheline versions for torn-read detection.
type Hopscotch struct {
	node, region int
	arena        *memory.Arena
	buckets      uint64
	inline       bool
	valueWords   int
	slotWords    int
	entryWords   int
	entryBase    memory.Offset

	mu        sync.Mutex
	freeEntry []memory.Offset
	size      int
	overflow  map[uint64][]uint64 // host-side overflow: key -> value (rare)
	ovfReads  int                 // slots that overflowed (diagnostic)
}

// Neighborhood is the hopscotch H parameter (the paper configures 8).
const Neighborhood = 8

// NewHopscotch builds the table. inline selects FaRM-KV/I vs /O.
func NewHopscotch(node, region int, buckets, capacity, valueWords int, inline bool) *Hopscotch {
	nb := uint64(1)
	for nb < uint64(buckets) {
		nb *= 2
	}
	sw := 2 // key, version
	if inline {
		sw += valueWords
	} else {
		sw++ // entry offset
	}
	if rem := sw % memory.WordsPerLine; rem != 0 {
		sw += memory.WordsPerLine - rem
	}
	h := &Hopscotch{
		node: node, region: region,
		buckets:    nb,
		inline:     inline,
		valueWords: valueWords,
		slotWords:  sw,
		overflow:   map[uint64][]uint64{},
	}
	if !inline {
		ew := valueWords
		if rem := ew % memory.WordsPerLine; rem != 0 {
			ew += memory.WordsPerLine - rem
		}
		if ew == 0 {
			ew = memory.WordsPerLine
		}
		h.entryWords = ew
		h.entryBase = memory.Offset(nb * uint64(sw))
		total := int(h.entryBase) + capacity*ew
		h.arena = memory.NewArena(region, total)
		for i := capacity - 1; i >= 0; i-- {
			h.freeEntry = append(h.freeEntry, h.entryBase+memory.Offset(i*ew))
		}
	} else {
		h.arena = memory.NewArena(region, int(nb)*sw)
	}
	return h
}

// Name implements Store.
func (h *Hopscotch) Name() string {
	if h.inline {
		return "FaRM-KV/I"
	}
	return "FaRM-KV/O"
}

// Arena returns the backing arena for fabric registration.
func (h *Hopscotch) Arena() *memory.Arena { return h.arena }

// Len returns the number of stored keys.
func (h *Hopscotch) Len() int { h.mu.Lock(); defer h.mu.Unlock(); return h.size }

func (h *Hopscotch) home(key uint64) uint64 { return mix(key, 0x48505343) % h.buckets }

func (h *Hopscotch) slotOff(i uint64) memory.Offset {
	return memory.Offset(i * uint64(h.slotWords))
}

func (h *Hopscotch) slotKey(i uint64) uint64 { return h.arena.LoadWord(h.slotOff(i)) }

// Insert places key on the host using hopscotch displacement: find a free
// slot by linear probing, then hop it backwards until it lies within the
// neighborhood of key's home bucket. Keys that cannot be placed go to the
// host-side overflow store (FaRM's overflow chains), which remote readers
// reach with an extra verbs round trip; with the occupancies used in the
// evaluation this is rare.
func (h *Hopscotch) Insert(key uint64, val []uint64) error {
	if key == 0 {
		return errors.New("altkv: key 0 reserved as empty marker")
	}
	if len(val) != h.valueWords {
		return errors.New("altkv: wrong value length")
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	home := h.home(key)
	// Linear-probe for a free slot.
	free := uint64(0)
	found := false
	for d := uint64(0); d < h.buckets; d++ {
		i := (home + d) % h.buckets
		if h.slotKey(i) == 0 {
			free, found = i, true
			break
		}
	}
	if !found {
		return ErrFull
	}
	// Hop the free slot back into the neighborhood.
	for dist(home, free, h.buckets) >= Neighborhood {
		moved := false
		// Find a slot g in [free-H+1, free) whose own home allows it to
		// move into `free`.
		for back := uint64(Neighborhood - 1); back >= 1; back-- {
			g := (free + h.buckets - back) % h.buckets
			k := h.slotKey(g)
			if k == 0 {
				continue
			}
			if dist(h.home(k), free, h.buckets) < Neighborhood {
				h.copySlot(g, free)
				h.clearSlot(g)
				free = g
				moved = true
				break
			}
		}
		if !moved {
			// Cannot create space in the neighborhood: overflow.
			h.overflow[key] = append([]uint64(nil), val...)
			h.ovfReads++
			h.size++
			return nil
		}
	}
	h.writeSlot(free, key, val)
	h.size++
	return nil
}

func dist(from, to, n uint64) uint64 { return (to + n - from) % n }

func (h *Hopscotch) copySlot(src, dst uint64) {
	buf := make([]uint64, h.slotWords)
	h.arena.Read(buf, h.slotOff(src))
	h.arena.Write(h.slotOff(dst), buf)
}

func (h *Hopscotch) clearSlot(i uint64) {
	h.arena.Write(h.slotOff(i), make([]uint64, h.slotWords))
}

func (h *Hopscotch) writeSlot(i uint64, key uint64, val []uint64) {
	buf := make([]uint64, h.slotWords)
	buf[0] = key
	buf[1] = 1 // version
	if h.inline {
		copy(buf[2:], val)
		h.arena.Write(h.slotOff(i), buf)
		return
	}
	entry := h.freeEntry[len(h.freeEntry)-1]
	h.freeEntry = h.freeEntry[:len(h.freeEntry)-1]
	h.arena.Write(entry, val)
	buf[2] = uint64(entry)
	h.arena.Write(h.slotOff(i), buf)
}

// LookupRemote READs key's neighborhood in a single one-sided READ and
// scans it. Overflowed keys are found via the host (not charged as a READ;
// the harness accounts them separately, and they are rare).
func (h *Hopscotch) LookupRemote(qp *rdma.QP, key uint64) bool {
	_, _, ok := h.probe(qp, key)
	if ok {
		return true
	}
	h.mu.Lock()
	_, ovf := h.overflow[key]
	h.mu.Unlock()
	return ovf
}

// probe returns (slot index, neighborhood buffer, found).
func (h *Hopscotch) probe(qp *rdma.QP, key uint64) (int, []uint64, bool) {
	home := h.home(key)
	n := Neighborhood * h.slotWords
	buf := make([]uint64, n)
	if home+Neighborhood <= h.buckets {
		qp.Read(h.node, h.region, h.slotOff(home), buf)
	} else {
		// Wrapped neighborhood: still one READ's worth in the cost model;
		// fetch the two pieces.
		first := (h.buckets - home) * uint64(h.slotWords)
		qp.Read(h.node, h.region, h.slotOff(home), buf[:first])
		h.arena.Read(buf[first:], 0)
	}
	for s := 0; s < Neighborhood; s++ {
		if buf[s*h.slotWords] == key {
			return s, buf, true
		}
	}
	return 0, nil, false
}

// GetRemote fetches the value: zero extra READs inline, one extra for the
// offset variant.
func (h *Hopscotch) GetRemote(qp *rdma.QP, key uint64) ([]uint64, bool) {
	s, buf, ok := h.probe(qp, key)
	if !ok {
		h.mu.Lock()
		v, ovf := h.overflow[key]
		h.mu.Unlock()
		if !ovf {
			return nil, false
		}
		return append([]uint64(nil), v...), true
	}
	if h.inline {
		out := make([]uint64, h.valueWords)
		copy(out, buf[s*h.slotWords+2:])
		return out, true
	}
	off := memory.Offset(buf[s*h.slotWords+2])
	val := make([]uint64, h.valueWords)
	qp.Read(h.node, h.region, off, val)
	return val, true
}

// Put overwrites an existing key's value on the host.
func (h *Hopscotch) Put(key uint64, val []uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.overflow[key]; ok {
		h.overflow[key] = append([]uint64(nil), val...)
		return true
	}
	home := h.home(key)
	for d := uint64(0); d < Neighborhood; d++ {
		i := (home + d) % h.buckets
		if h.slotKey(i) == key {
			if h.inline {
				buf := make([]uint64, h.slotWords)
				h.arena.Read(buf, h.slotOff(i))
				buf[1]++ // version
				copy(buf[2:], val)
				h.arena.Write(h.slotOff(i), buf)
			} else {
				off := memory.Offset(h.arena.LoadWord(h.slotOff(i) + 2))
				h.arena.Write(off, val)
			}
			return true
		}
	}
	return false
}
