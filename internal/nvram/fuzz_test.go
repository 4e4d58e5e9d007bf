package nvram

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"drtm/internal/htm"
)

// wordsOf reinterprets fuzz bytes as the word stream IterRedo consumes.
func wordsOf(data []byte) []uint64 {
	ws := make([]uint64, len(data)/8)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return ws
}

// updatesFrom derives a structured update list from fuzz bytes, exercising
// the full header — including the PR-7 delete-generation word and the
// ordered-row incarnation packed into the version word's high half.
func updatesFrom(ws []uint64) []RedoUpdate {
	var ups []RedoUpdate
	for len(ws) >= 7 {
		vw := int(ws[6] % 5)
		if len(ws) < 7+vw {
			vw = 0
		}
		ups = append(ups, RedoUpdate{
			Part:    int(ws[0] % 64),
			Epoch:   ws[1],
			Table:   int(ws[2] % 256),
			Key:     ws[3],
			Version: uint32(ws[4]),
			Inc:     uint32(ws[4] >> 32),
			Gen:     ws[5],
			Val:     append([]uint64(nil), ws[7:7+vw]...),
		})
		ws = ws[7+vw:]
	}
	return ups
}

// iterate collects what a RedoIter hands out over rec (values alias rec).
func iterate(rec []uint64) (txid uint64, ups []RedoUpdate, ok bool) {
	it, ok := IterRedo(rec)
	if !ok {
		return 0, nil, false
	}
	for u, more := it.Next(); more; u, more = it.Next() {
		ups = append(ups, u)
	}
	if _, more := it.Next(); more {
		return 0, nil, false // Next after exhaustion must stay exhausted
	}
	return it.TxID, ups, true
}

// FuzzRedoRoundTrip checks the two halves of the redo wire format:
//
//  1. EncodeRedo followed by iteration is the identity on any structured
//     update list (every header field survives, including Gen and Inc);
//  2. IterRedo and Next never panic on an arbitrary word stream, and whatever
//     IterRedo does accept re-encodes to a frame that iterates identically
//     (no accept-then-corrupt frames).
func FuzzRedoRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte{})
	// One well-formed single-update frame: txid=7, count=1, then a header
	// with inc 3 packed over version 9, gen 2, two value words.
	well := make([]byte, 0, 9*8)
	for _, w := range []uint64{7, 1, 4, 11, 20, 99, 3<<32 | 9, 2, 2, 0xAA, 0xBB} {
		well = binary.LittleEndian.AppendUint64(well, w)
	}
	f.Add(uint64(7), well)
	// A frame whose count word promises more updates than the tail holds.
	trunc := make([]byte, 0, 3*8)
	for _, w := range []uint64{1, 1 << 60, 5} {
		trunc = binary.LittleEndian.AppendUint64(trunc, w)
	}
	f.Add(uint64(0), trunc)
	// An erase record: nil value, even incarnation.
	f.Add(uint64(3), binary.LittleEndian.AppendUint64(nil, 2<<32|4))
	// A write-ahead record's shape: epoch and gen 0, a write of a replicated
	// table's row (part -1) and an erase with no value.
	wal := make([]byte, 0, 17*8)
	for _, w := range []uint64{9, 2, ^uint64(0), 0, 3, 5, 1<<32 | 4, 0, 1, 0xCC, 1, 0, 7, 9, 2<<32 | 3, 0, 0} {
		wal = binary.LittleEndian.AppendUint64(wal, w)
	}
	f.Add(uint64(9), wal)

	f.Fuzz(func(t *testing.T, txid uint64, data []byte) {
		ws := wordsOf(data)

		// Half 2: arbitrary stream must decode safely, and accepted frames
		// must round-trip exactly.
		if dtx, dups, ok := iterate(ws); ok {
			re := EncodeRedo(nil, dtx, dups)
			rtx, rups, rok := iterate(re)
			if !rok || rtx != dtx {
				t.Fatalf("re-decode of accepted frame failed: ok=%v txid %d vs %d", rok, rtx, dtx)
			}
			compare(t, dups, rups)
		}

		// Half 1: structured round-trip.
		ups := updatesFrom(ws)
		enc := EncodeRedo(nil, txid, ups)
		if len(enc) != RedoWords(ups) {
			t.Fatalf("encoded length %d, RedoWords says %d", len(enc), RedoWords(ups))
		}
		gtx, gups, ok := iterate(enc)
		if !ok || gtx != txid {
			t.Fatalf("decode failed: ok=%v txid %d vs %d", ok, gtx, txid)
		}
		compare(t, ups, gups)
	})
}

// TestRedoRoundTripWriteAheadShape: the record a worker writes ahead without
// replication is a redo record with epoch and gen 0 whose updates may name
// part -1 (a replicated table's row) and erase with no value; the iterator
// hands each back as it was encoded.
func TestRedoRoundTripWriteAheadShape(t *testing.T) {
	ups := []RedoUpdate{
		{Part: -1, Table: 3, Key: 5, Version: 4, Inc: 1, Val: []uint64{0xCC}},
		{Part: 1, Table: 7, Key: 9, Version: 3, Inc: 2},
	}
	rec := EncodeRedo(nil, 9, ups)
	txid, got, ok := iterate(rec)
	if !ok || txid != 9 || len(rec) != RedoWords(ups) {
		t.Fatalf("iterate = txid %d, ok %v over %d words (RedoWords %d)", txid, ok, len(rec), RedoWords(ups))
	}
	compare(t, ups, got)
	if got[0].Part != -1 || len(got[1].Val) != 0 {
		t.Fatalf("decoded part %d, erase value %v; want -1 and none", got[0].Part, got[1].Val)
	}
}

func compare(t *testing.T, want, got []RedoUpdate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("update count %d vs %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.Part != g.Part || w.Epoch != g.Epoch || w.Table != g.Table ||
			w.Key != g.Key || w.Version != g.Version || w.Inc != g.Inc || w.Gen != g.Gen {
			t.Fatalf("update %d header: %+v vs %+v", i, g, w)
		}
		if len(w.Val) != len(g.Val) {
			t.Fatalf("update %d value length %d vs %d", i, len(g.Val), len(w.Val))
		}
		for j := range w.Val {
			if w.Val[j] != g.Val[j] {
				t.Fatalf("update %d value word %d: %#x vs %#x", i, j, g.Val[j], w.Val[j])
			}
		}
	}
}

// TestIterRedoRejectsMalformedFrames pins the three framing checks, all made
// before the first update is handed out: a count the frame cannot hold, a
// tail shorter than its header promises, and a value length that would wrap
// negative through int().
func TestIterRedoRejectsMalformedFrames(t *testing.T) {
	good := EncodeRedo(nil, 9, []RedoUpdate{
		{Part: 1, Epoch: 2, Table: 3, Key: 4, Version: 5, Val: []uint64{6, 7}},
		{Part: 1, Epoch: 2, Table: 3, Key: 8, Version: 1},
	})
	if _, ups, ok := iterate(good); !ok || len(ups) != 2 || ups[0].Val[1] != 7 || len(ups[1].Val) != 0 {
		t.Fatalf("well-formed frame: ok=%v ups=%+v", ok, ups)
	}
	mutate := func(i int, w uint64) []uint64 {
		rec := append([]uint64(nil), good...)
		rec[i] = w
		return rec
	}
	for name, rec := range map[string][]uint64{
		"empty":                           {},
		"header only, count 1":            {1, 1},
		"corrupt count":                   mutate(1, 1<<60),
		"count one too many":              mutate(1, 3),
		"short tail":                      good[:len(good)-1],
		"wrapped value length":            mutate(2+redoUpdateHeaderWords-1, 1<<63|1),
		"second update's length overruns": mutate(2+redoUpdateHeaderWords+2+redoUpdateHeaderWords-1, 1),
	} {
		it, ok := IterRedo(rec)
		if ok {
			t.Errorf("%s: accepted", name)
		}
		if u, more := it.Next(); more {
			t.Errorf("%s: rejected, yet its iterator yields %+v", name, u)
		}
	}
}

// FuzzLogModel drives one Log — capped at four times its first arena, so the
// bigger records force it to grow — and a slice-of-records model through the
// owner's operations, one per input byte: append (immediate, or transactional
// and then committed or aborted), reserve and restart. After every step the
// log scans to exactly the model and accounts for exactly its words; an append
// fails exactly when the record would pass the cap, a transactional one also
// when nothing reserved its room.
func FuzzLogModel(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0xF2, 0x03, 0xF0, 0xF1, 0x83, 0xF2, 0xF2, 0xF2, 0xF0, 0x05})
	f.Add([]byte{0xF3, 0xF7, 0xF3, 0x03, 0xFB, 0xF3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const cap = 4 * InitialWords
		l, eng := NewLog(0, cap), htm.NewEngine(htm.Config{WriteLines: 2 * InitialWords})
		var model [][]uint64
		used := 0
		for step, op := range ops {
			rec := make([]uint64, int(op>>2)*150) // 0 .. 9450 words
			for i := range rec {
				rec[i] = uint64(step)<<32 | uint64(i)
			}
			fits := used+1+len(rec) <= cap
			switch op & 3 {
			case 0: // immediate append
				if l.Append(rec) != fits {
					t.Fatalf("step %d: Append of %d words onto %d = %v", step, len(rec), used, !fits)
				}
			case 1, 2: // transactional append, committed (1) or aborted (2)
				fits = fits && int(dataOff)+used+1+len(rec) <= l.Arena().Len()
				_ = eng.Run(func(tx *htm.Txn) error {
					if l.AppendTx(tx, rec) != fits {
						t.Fatalf("step %d: AppendTx of %d words onto %d = %v", step, len(rec), used, !fits)
					}
					if op&3 == 2 {
						fits = false
						return errors.New("abort")
					}
					return nil
				})
			case 3: // reserve the record's room, or (every other length) restart
				if fits = false; op&4 == 0 {
					l.Reserve(len(rec))
				} else {
					l.Truncate()
					model, used = nil, 0
				}
			}
			if fits {
				model, used = append(model, rec), used+1+len(rec)
			}
			if got := records(l); !slices.EqualFunc(got, model, func(a, b []uint64) bool { return slices.Equal(a, b) }) || l.BytesUsed() != used*8 {
				t.Fatalf("step %d (op %#x): %d records / %d bytes, model has %d / %d", step, op, len(got), l.BytesUsed(), len(model), used*8)
			}
		}
	})
}
