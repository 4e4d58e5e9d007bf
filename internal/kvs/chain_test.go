package kvs

import (
	"testing"

	"drtm/internal/memory"
)

// TestRetireLocalRowWidths: RetireLocal assembles the retired slot in a fixed
// stack buffer, so a row that fills it exactly, one a word wider and one
// several buffers wide must all retire the whole (stamp, incver, value) triple
// into the right slot, leave the slot beside it and the live value alone,
// resolve at the old stamp, and allocate nothing.
func TestRetireLocalRowWidths(t *testing.T) {
	const depth = 2
	buf := 8 * memory.WordsPerLine // RetireLocal's buffer, in words
	for _, vw := range []int{1, buf - ChainValueWord, buf - ChainValueWord + 1, 3*buf + 5} {
		a := memory.NewArena(0, 64+EntryImageWords(vw, depth))
		off := memory.Offset(64)
		const key = 0xD00D
		a.StoreWord(off+EntryKeyWord, key)
		val := func(ver uint32) []uint64 {
			v := make([]uint64, vw)
			for i := range v {
				v[i] = uint64(ver)<<32 | uint64(i)
			}
			return v
		}
		write := func(ver uint32, stamp uint64) {
			head := PackIncVer(1, ver)
			RetireLocal(a, off, vw, depth, stamp, head)
			a.Write(off+EntryValueWord, val(ver))
			a.StoreWord(off+EntryIncVerWord, head)
		}
		write(0, 10) // the insert: nothing to retire yet
		write(1, 20) // retires version 0 into slot 0
		img := make([]uint64, EntryImageWords(vw, depth))
		a.Read(img, off)
		s0 := EntryValueWord + vw
		s1 := s0 + ChainSlotWords(vw)
		if img[s0+ChainStampWord] != 10 || img[s0+ChainIncVerWord] != PackIncVer(1, 0) {
			t.Fatalf("vw %d: slot 0 header = (%d, %#x)", vw, img[s0+ChainStampWord], img[s0+ChainIncVerWord])
		}
		for i, w := range val(0) {
			if img[s0+ChainValueWord+i] != w {
				t.Fatalf("vw %d: retired value word %d = %#x, want %#x", vw, i, img[s0+ChainValueWord+i], w)
			}
		}
		for i := 0; i < ChainSlotWords(vw); i++ {
			if img[s1+i] != 0 {
				t.Fatalf("vw %d: slot 1 word %d = %#x, want it untouched", vw, i, img[s1+i])
			}
		}
		for i, w := range val(1) {
			if img[EntryValueWord+i] != w {
				t.Fatalf("vw %d: live value word %d = %#x, want %#x", vw, i, img[EntryValueWord+i], w)
			}
		}
		if r := ResolveAtStamp(img, vw, depth, key, 15); r.Status != ResolveRetired || r.Value[vw-1] != val(0)[vw-1] {
			t.Fatalf("vw %d: resolve at the old stamp = %+v", vw, r.Status)
		}
		ver := uint32(1)
		if n := testing.AllocsPerRun(20, func() {
			ver++
			RetireLocal(a, off, vw, depth, uint64(20+ver), PackIncVer(1, ver))
			a.StoreWord(off+EntryIncVerWord, PackIncVer(1, ver))
		}); n != 0 {
			t.Fatalf("vw %d: RetireLocal allocated %.0f objects", vw, n)
		}
	}
}
