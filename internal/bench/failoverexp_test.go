package bench

import (
	"testing"
	"time"
)

func TestSmokeFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover experiment is slow")
	}
	runSmoke(t, "failover")
}

// TestFailoverAcceptance pins the replication PR's correctness claims and the
// log lifetime rule's on the crash scenario the experiment reports: killing a
// primary under live traffic loses zero committed transactions with or without
// a backup, f=1 repairs by promotion alone, and neither repair's work follows
// the history behind it. The gate is each repair's work in log records — what
// Recover read from the victim's write-ahead logs, what the promotion replayed
// from redo tails — held under a constant at a 1x and at a 4x warm window. (It
// used to be a wall-clock ratio, promotion < 0.2x of Recover, measured against
// a write-ahead log nothing truncated; with logs reclaimed at transaction
// boundaries both repairs take tens of microseconds.)
func TestFailoverAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("failover acceptance is slow")
	}
	const (
		// A victim's worker has the transaction it was in — or had just finished
		// — in its log, and one more if, a zombie, it ran another before it saw
		// that its machine was dead.
		maxWALScanned = 2 * 2 // per worker x the victim's workers
		// Ten rings are drained (six hosted on the new owner, the victim's four
		// elsewhere), each drained by the append that would take it past
		// cluster.CheckpointWords = 1024 words, of records no shorter than 11.
		maxRedoTail = 10 * (1024/11 + 1)
	)
	// Three crash scenarios at the 1x window and one at 4x: the correctness
	// checks hold on every run, and so does the bound — the same at both
	// windows, which is the claim.
	for _, c := range []struct {
		warmX int
		seed  int64
	}{{1, 1}, {1, 2}, {1, 3}, {4, 1}} {
		warmX, seed := c.warmX, c.seed
		o := Options{Seed: seed}

		r := measureFailoverArm(o, 0, warmX)
		if r.err != nil {
			t.Fatalf("f=0 arm: %v", r.err)
		}
		if !r.repaired {
			t.Fatal("f=0 arm: victim was never revived")
		}
		// recovery.run counts the Recovers that found something to replay;
		// a victim caught between two transactions leaves none, so the call
		// itself is what must show.
		if r.unavailNS() <= 0 {
			t.Error("f=0 arm recorded no Recover invocation")
		}
		if !r.conserved() {
			t.Errorf("f=0 arm lost money: %s", r.conservation())
		}
		if r.st.Count("recovery.wal_scanned") > maxWALScanned {
			t.Errorf("f=0 arm, %dx warm window: Recover read %d write-ahead records, want <= %d: the victim's logs kept history",
				warmX, r.st.Count("recovery.wal_scanned"), maxWALScanned)
		}
		if r.st.Count("nvram.log_restart") == 0 {
			t.Error("f=0 arm: no worker ever restarted its logs")
		}

		h := measureFailoverArm(o, 1, warmX)
		if h.err != nil {
			t.Fatalf("f=1 arm: %v", h.err)
		}
		if !h.repaired {
			t.Fatal("f=1 arm: partition was never promoted")
		}
		if h.st.Count("repl.failover") == 0 {
			t.Error("f=1 arm recorded no promotion")
		}
		if h.st.Count("recovery.run") != 0 {
			t.Errorf("f=1 arm fell back to full recovery %d times", h.st.Count("recovery.run"))
		}
		if h.st.Count("repl.log_append") == 0 || h.st.Count("repl.backup_bytes") == 0 {
			t.Errorf("f=1 arm shipped no redo records (appends=%d bytes=%d)",
				h.st.Count("repl.log_append"), h.st.Count("repl.backup_bytes"))
		}
		// Zero lost committed transactions across the crash, audited
		// through the promoted replica.
		if h.unavailNS() <= 0 {
			t.Error("f=1 arm recorded no promotion time")
		}
		if !h.conserved() {
			t.Errorf("f=1 arm lost money across failover: %s", h.conservation())
		}
		if h.st.Count("repl.redo_tail") > maxRedoTail {
			t.Errorf("f=1 arm, %dx warm window: promotion replayed %d redo records, want <= %d: a ring outran its drains",
				warmX, h.st.Count("repl.redo_tail"), maxRedoTail)
		}
		t.Logf("%dx warm, seed %d: f=0 %d commits, %d WAL records scanned, Recover %v; f=1 %d commits, %d redo records replayed, promotion %v",
			warmX, seed, r.Commits, r.st.Count("recovery.wal_scanned"), time.Duration(r.unavailNS()),
			h.Commits, h.st.Count("repl.redo_tail"), time.Duration(h.unavailNS()))
	}
}
