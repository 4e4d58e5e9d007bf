package tatp_test

import (
	"fmt"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tatp"
	"drtm/internal/tx"
)

// orderedGoldenRow is what one TATP transaction type cost on the client's
// worker, summed over orderedGoldenTxns transactions: two-sided messages,
// one-sided CAS / READ / WRITE verbs and modeled nanoseconds. (Divide by
// orderedGoldenTxns for the per-transaction figures EXPERIMENTS.md quotes.)
type orderedGoldenRow struct {
	name                           string
	msgs, cases, reads, writes, ns int64
}

func (r orderedGoldenRow) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d},", r.name, r.msgs, r.cases, r.reads, r.writes, r.ns)
}

const orderedGoldenTxns = 100

// TestOrderedPathGolden is the ordered-table companion of internal/tx's
// TestHashPathGolden: it pins, per TATP transaction type and for a local and a
// remote subscriber, the verbs the whole transaction sent and its modeled
// time, on a fixed script with one client. Every TATP table is ordered, so
// this is the shipped-message + fused-wave path of Tx.Stage end to end
// (lookups and EnsureDeads coalesced per host, structural rows locked in the
// base row's wave, removals coalesced per host). The cluster's soft-clock
// timers never start, and no soft time reaches the table: an erased entry is
// unlinked by the commit that erased it. The local rows also show the lookup side: a read followed by a
// write of one row is one tree lookup, and the script's subscribers are
// adjacent keys, so most lookups and scan starts are hits on the executor's
// leaf cache (random subscribers would descend).
//
// If a change moves the table on purpose, paste the observed rows the failure
// prints. (Moved three times since. In the ns column of the six remote read-write
// rows only: the commit's value, chain and release WRITEs became one polled
// wave instead of two. Then in the ns column of four local rows only, each by
// a multiple of BTreeOpNS − HashProbeNS = 340: the finger remembers 32
// fenced leaves, which is most of a table of the script's 400 subscribers
// whatever the key order, and a scan starts from the cache. Then by three
// stated rules at once: a shipped lookup's reply carries the entry it found, so
// a speculative read of a remote ordered row posts no fetch READ — get_subscriber
// remote −100 READs, update_location remote −100 READs (its index row; the
// subscriber row's READ is fused behind its lock CAS and stays); a one-record
// read-only transaction confirms nothing — get_subscriber remote another −100
// READs, local −12 ns per transaction (three header loads); and every reply is
// charged for the image bytes it carries, 0.15 ns per byte of 8·(3 + value
// words) per lookup, whichever arm asked — the three remote rows that ship a
// lookup for a write or an erase, toggle_facility, delete_call_fwd and
// delete_subscriber, move by 6 to 24 ns per transaction in the ns column
// alone (rows that ship only EnsureDeads do not move). The commit-time
// validation of update_location's index row re-READs three header words
// where it read two (+1 ns). EXPERIMENTS.md has the tables. The two warm rows
// came with the ordered regions' location-cache frames and moved nothing else:
// 96 of the script's 100 remote subscribers were one READ at a cached offset,
// 1 507 ns, and four lost their direct-mapped frame to another subscriber and
// shipped their lookup again. Then in that warm row alone: an ordered cache has
// the frames its budget buys, not one per entry of its region (1 856 here), so
// those four keep their frames and all 100 are one READ at a cached offset.
// Then by one rule, entries without version chains, in four ways. A committed
// remote row's chain is its value and release: two WRITEs fewer per row (the
// tail pair and the retired slot, 400 ns of doorbells) and, where the retired
// slot carrying the superseded value was the wave's longest WRITE, a shorter
// wave (update_location, toggle_facility, the call-forwarding and subscriber
// rows). An erase's unlink runs at its own commit instead of from the
// snapshot-gated queue a later commit drained, so removal messages (6 408 ns
// for one op, 7 626 for four) and local unlinks (400 ns each) move back into
// the row that erased: one message from insert_call_fwd local to
// toggle_facility remote, from delete_subscriber local to delete_call_fwd
// remote and from insert_subscriber local to delete_subscriber remote. The
// 256-key get_new_destination scan has no snapshot arm to take and confirms:
// one READ of its segment stamp, 1 701 ns per remote transaction. The lock,
// lookup and region costs did not move: a local ring retire was never charged.
// Then by one rule, in the three remote rows that insert: a remote insert's
// fresh slot is born write-locked for its inserter, so it takes no lock CAS and
// no fused READ — toggle_facility's 48 inserts −48 CAS and −48 READs (the base
// row's wave stays, so −189 ns per transaction), insert_call_fwd's 48 the same
// (−7 150 ns), insert_subscriber's 409 rows all of theirs (−16 121 ns); each
// such EnsureDead's reply carries the slot's three header words. Then by one
// rule, in the ns column of six remote rows alone: with no log, a commit's
// release chain is left in flight, and a removal is a one-way message — each
// row fell by exactly the latency nothing waits for, the chain's slowest WRITE
// per committing write (1 202 to 1 206 ns: update_location and
// insert_subscriber −1 206 per transaction, insert_call_fwd's 48 inserts
// −1 204 each) plus, per removal message, its reply and its request less one
// doorbell (5 808 ns for one entry: delete_call_fwd's 48 erases −7 010 each).)
func TestOrderedPathGolden(t *testing.T) {
	got := runOrderedGolden(t)
	bad := len(got) != len(orderedGolden)
	for i := 0; !bad && i < len(got); i++ {
		bad = got[i] != orderedGolden[i]
	}
	if !bad {
		return
	}
	for i, g := range got {
		mark := ""
		if i >= len(orderedGolden) || orderedGolden[i] != g {
			mark = " // MOVED"
		}
		t.Logf("\t%v%s", g, mark)
	}
	t.Fatal("ordered path moved (rows above are the observed table)")
}

func runOrderedGolden(t *testing.T) []orderedGoldenRow {
	t.Helper()
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.LeaseMicros = 1 << 40
	ccfg.ROLeaseMicros = 1 << 40
	c := cluster.New(ccfg)
	cfg := tatp.Config{Nodes: 2, Subscribers: 4 * orderedGoldenTxns}
	rt := tx.NewRuntime(c, cfg.Partitioner())
	rt.ReadPolicy = tx.PolicyAdaptive // the repo benchmark's policy
	w, err := tatp.Setup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1)

	var rows []orderedGoldenRow
	sh := e.Worker().Obs
	count := func() orderedGoldenRow {
		return orderedGoldenRow{
			msgs: sh.Count(obs.EvVerbsMsg), cases: sh.Count(obs.EvRDMACAS),
			reads: sh.Count(obs.EvRDMARead), writes: sh.Count(obs.EvRDMAWrite),
			ns: int64(e.Worker().VClock.Now()),
		}
	}
	// measureAt runs op once per subscriber of one home: even subscriber ids
	// are local to the client's node 0, odd ones remote.
	measureAt := func(name string, home int, op func(sid uint64, i int) error) {
		r0 := count()
		for i := 0; i < orderedGoldenTxns; i++ {
			sid := uint64(2*(i+1) + home)
			if err := op(sid, i); err != nil {
				t.Fatalf("%s, subscriber %d: %v", name, sid, err)
			}
		}
		r := count()
		rows = append(rows, orderedGoldenRow{name: name,
			msgs: r.msgs - r0.msgs, cases: r.cases - r0.cases,
			reads: r.reads - r0.reads, writes: r.writes - r0.writes, ns: r.ns - r0.ns,
		})
	}
	measure := func(name string, op func(sid uint64, i int) error) {
		measureAt(name+" local", 0, op)
		measureAt(name+" remote", 1, op)
	}
	// The two read-only types run their remote subscribers a second time, warm:
	// the point read finds every row's offset in the location cache; the scan
	// never asks it.
	getSub := func(sid uint64, i int) error { return cl.GetSubscriberData(sid) }
	measure("get_subscriber", getSub)
	measureAt("get_subscriber remote, warm", 1, getSub)
	getDest := func(sid uint64, i int) error { return cl.GetNewDestination(sid, 1+i%tatp.NumSFTypes) }
	measure("get_new_destination", getDest)
	measureAt("get_new_destination remote, warm", 1, getDest)
	measure("update_location", func(sid uint64, i int) error { return cl.UpdateLocation(tatp.SubNbr(sid), uint64(i)) })
	// Half the toggles add the facility row, half drop it.
	measure("toggle_facility", func(sid uint64, i int) error { return cl.ToggleSpecialFacility(sid, 1+i%tatp.NumSFTypes) })
	measure("insert_call_fwd", func(sid uint64, i int) error { return cl.InsertCallForwarding(sid, 1+i%tatp.NumSFTypes, i%24) })
	measure("delete_call_fwd", func(sid uint64, i int) error { return cl.DeleteCallForwarding(sid, 1+i%tatp.NumSFTypes, i%24) })
	measure("delete_subscriber", func(sid uint64, i int) error { return cl.DeleteSubscriber(sid) })
	measure("insert_subscriber", func(sid uint64, i int) error { return cl.InsertSubscriber(sid, uint64(i%15+1)<<1) })
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	// A detached wave's latency is never waited out inside the script: each
	// scenario's next verb outlasts what the last one left in flight.
	if n := sh.Count(obs.EvInflightWaitNS); n != 0 {
		t.Errorf("the script waited %d ns for work left in flight", n)
	}
	return rows
}

// The golden table: {type and home, messages, CASes, READs, WRITEs, modeled
// ns}, each summed over orderedGoldenTxns transactions.
var orderedGolden = []orderedGoldenRow{
	{"get_subscriber local", 0, 0, 0, 0, 9980},
	{"get_subscriber remote", 100, 0, 0, 0, 641600},
	{"get_subscriber remote, warm", 0, 0, 100, 0, 150700},
	{"get_new_destination local", 0, 0, 0, 0, 6340},
	{"get_new_destination remote", 100, 0, 100, 0, 832100},
	{"get_new_destination remote, warm", 100, 0, 100, 0, 832100},
	{"update_location local", 0, 0, 0, 0, 35620},
	{"update_location remote", 100, 100, 200, 100, 2378600},
	{"toggle_facility local", 0, 0, 0, 0, 110452},
	{"toggle_facility remote", 204, 152, 152, 200, 2635208},
	{"insert_call_fwd local", 0, 0, 0, 0, 37854},
	{"insert_call_fwd remote", 148, 0, 96, 48, 1021112},
	{"delete_call_fwd local", 0, 0, 0, 0, 65806},
	{"delete_call_fwd remote", 148, 48, 48, 48, 1402540},
	{"delete_subscriber local", 0, 0, 0, 0, 345154},
	{"delete_subscriber remote", 300, 410, 410, 410, 4715219},
	{"insert_subscriber local", 0, 0, 0, 0, 186462},
	{"insert_subscriber remote", 100, 0, 0, 409, 865499},
}
