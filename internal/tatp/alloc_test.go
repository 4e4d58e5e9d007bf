//go:build !race

package tatp_test

import (
	"testing"

	"drtm"
	"drtm/internal/tatp"
)

// TestAllocSteadyState pins what each TATP transaction type allocates once
// the executor's pools are warm: nothing, for a subscriber on the client's
// node and for one on the other node. The rows a body stages or writes are
// the client's scratch arrays (the callees copy). The inserting types run
// paired with the type that undoes them, and a call-forwarding row that stays
// keeps its leaf populated, so no measured insert splits a B+ tree leaf — a
// split allocates its new leaf, which the btree allocation test pins.
// Excluded under -race: the detector adds shadow allocations.
func TestAllocSteadyState(t *testing.T) {
	db, w := openTATP(t, 2, 1, drtm.Options{})
	cl := w.NewClient(db.Executor(0, 0), 1)
	// Subscribers 4 and 6 live on node 0, the client's, 5 and 7 on node 1;
	// facility type 2 is set in the initial mask of all four.
	for _, side := range []struct {
		name         string
		sid, lifeSid uint64
	}{{"local", 4, 6}, {"remote", 5, 7}} {
		sid, life := side.sid, side.lifeSid
		const sf = 2
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", side.name, err)
			}
		}
		// A forwarding row that stays, beside the one the measured pair
		// inserts and deletes.
		must(cl.InsertCallForwarding(sid, sf, 1))
		types := []struct {
			name string
			run  func()
		}{
			{"get-subscriber", func() { must(cl.GetSubscriberData(sid)) }},
			{"get-new-destination", func() { must(cl.GetNewDestination(sid, sf)) }},
			{"update-location", func() { must(cl.UpdateLocation(tatp.SubNbr(sid), 7)) }},
			{"toggle-facility (twice)", func() {
				must(cl.ToggleSpecialFacility(sid, 3))
				must(cl.ToggleSpecialFacility(sid, 3))
			}},
			{"insert-call-fwd + delete-call-fwd", func() {
				must(cl.InsertCallForwarding(sid, sf, 2))
				must(cl.DeleteCallForwarding(sid, sf, 2))
			}},
			{"delete-subscriber + insert-subscriber", func() {
				must(cl.DeleteSubscriber(life))
				must(cl.InsertSubscriber(life, 1<<sf))
			}},
		}
		for _, ty := range types {
			for i := 0; i < 16; i++ { // warm the pools
				ty.run()
			}
			if n := testing.AllocsPerRun(50, ty.run); n > 0 {
				t.Errorf("%s %s allocates %.1f objects, want 0", side.name, ty.name, n)
			}
		}
	}
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
}
