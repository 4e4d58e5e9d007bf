package bench

import (
	"testing"

	"drtm/internal/vtime"
)

func TestSmokeBatch(t *testing.T) { runSmoke(t, "batch") }

// The acceptance bars of the `batch` gate: with batching on, the remote
// lock/read phase of an 8-record transaction must cost under 0.6x of 8 serial
// round trips, while window=1 must stay close to the serial round-trip count;
// and a 4-row remote ordered insert declared with one Stage must cost under
// 0.4x of the per-row declaration with one shipped message, while window=1
// reproduces the per-row messages, waves and cost; and the commit of two
// multi-line chained remote records — eight WRITEs — must be exactly one polled
// wave costing at most 0.6x of posting and polling each on its own.
func TestBatchAcceptance(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	const n = 8
	const txns = 60

	serial, _ := measureBatch(o, txns, n, 1)
	batched, batches := measureBatch(o, txns, n, 16)

	if serial <= 0 || batched <= 0 {
		t.Fatalf("no lock-phase observations: serial=%v batched=%v", serial, batched)
	}
	if ratio := batched / serial; ratio >= 0.6 {
		t.Fatalf("batched lock phase = %.2fx of serial, want < 0.6x (serial=%.0fns batched=%.0fns)",
			ratio, serial, batched)
	}

	// window=1 should cost about n round trips: lookup READ + lease CAS +
	// prefetch READ per record, plus per-WR doorbell and occasional chain
	// hops (hence the loose upper bound).
	m := vtime.DefaultModel()
	perRecord := float64(2*m.RDMAReadBaseNS + m.RDMACASNS)
	if est := float64(n) * perRecord; serial < 0.9*est || serial > 1.5*est {
		t.Fatalf("window=1 lock phase %.0fns outside [0.9, 1.5]x of %d serial round trips (%.0fns)",
			serial, n, est)
	}

	// Batching should collapse the per-record verbs into a few waves per
	// transaction, not one poll per verb.
	if batches >= float64(3*n)/2 {
		t.Fatalf("batched run polled %.1f batches/txn, want far fewer than the %d verbs staged", batches, 3*n)
	}

	// Ordered / structural declares ride the same pipeline: a 4-row remote
	// insert through one Stage resolves with ONE shipped message and locks in
	// one wave — under 0.4x of declaring the rows one by one.
	const rows = 4
	perRow := measureOrderedBatch(o, txns, rows, 16, orderedInsert, false)
	staged := measureOrderedBatch(o, txns, rows, 16, orderedInsert, true)
	if perRow.lockNS <= 0 || staged.lockNS <= 0 {
		t.Fatalf("no ordered lock-phase observations: per row %+v, staged %+v", perRow, staged)
	}
	if ratio := staged.lockNS / perRow.lockNS; ratio >= 0.4 {
		t.Fatalf("staged %d-row insert lock phase = %.2fx of per-row, want < 0.4x (per row %.0fns, staged %.0fns)",
			rows, ratio, perRow.lockNS, staged.lockNS)
	}
	if staged.msgs != 1 || perRow.msgs != rows {
		t.Fatalf("messages per transaction: staged %.2f (want 1), per row %.2f (want %d)", staged.msgs, perRow.msgs, rows)
	}
	// window=1 is the serial control arm: one key per message and one verb per
	// poll, i.e. the per-row declaration's messages, waves and cost.
	perRow1 := measureOrderedBatch(o, txns, rows, 1, orderedInsert, false)
	staged1 := measureOrderedBatch(o, txns, rows, 1, orderedInsert, true)
	if staged1.msgs != perRow1.msgs || staged1.batches != perRow1.batches {
		t.Fatalf("window=1: staged sends %.2f msgs in %.2f waves, per row %.2f in %.2f",
			staged1.msgs, staged1.batches, perRow1.msgs, perRow1.batches)
	}
	if r := staged1.lockNS / perRow1.lockNS; r < 0.95 || r > 1.05 {
		t.Fatalf("window=1 staged lock phase = %.2fx of per-row, want within 5%% (%.0fns vs %.0fns)",
			r, staged1.lockNS, perRow1.lockNS)
	}

	// The release side is one doorbell chain: value, chain and unlock WRITEs of
	// both records share a wave.
	serialCommit, serialWaves := measureCommitBatch(o, txns, 1)
	fusedCommit, fusedWaves := measureCommitBatch(o, txns, 16)
	if fusedWaves != 1 || serialWaves != 8 {
		t.Fatalf("commit of 2 multi-line chained records polled %.2f waves (want 1), window=1 %.2f (want one per WRITE: 8)",
			fusedWaves, serialWaves)
	}
	if serialCommit <= 0 || fusedCommit > 0.6*serialCommit {
		t.Fatalf("fused commit = %.0fns, window=1 %.0fns: want at most 0.6x", fusedCommit, serialCommit)
	}
}
