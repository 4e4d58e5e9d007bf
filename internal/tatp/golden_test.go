package tatp_test

import (
	"fmt"
	"runtime"
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
// timers never start, and the script fixes the one point where soft time
// still reaches the table: where an erased entry is unlinked (see
// measureAt). The local rows also show the lookup side: a read followed by a
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
// 96 of the script's 100 remote subscribers are one READ at a cached offset,
// 1 507 ns, and four lost their direct-mapped frame to another subscriber and
// ship their lookup again.)
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
	sh, clk := e.Worker().Obs, c.Node(0).Clock
	count := func() orderedGoldenRow {
		return orderedGoldenRow{
			msgs: sh.Count(obs.EvVerbsMsg), cases: sh.Count(obs.EvRDMACAS),
			reads: sh.Count(obs.EvRDMARead), writes: sh.Count(obs.EvRDMAWrite),
			ns: int64(e.Worker().VClock.Now()),
		}
	}
	// measureAt runs op once per subscriber of one home: even subscriber ids
	// are local to the client's node 0, odd ones remote.
	//
	// An erase's unlink waits in the MVCC-gated removal queue until the
	// snapshot floor passes the erase's commit stamp. Both are soft time, which
	// reads the host's clock in microseconds, and a commit's own bracket holds
	// the floor below its stamp, so a later commit drains it: the next one if
	// the clock has moved a microsecond since, else one after. On a host fast
	// enough to commit twice inside a microsecond, the unlink of one row's
	// last erases was drained — and charged — in the next row. So the script
	// waits, before every transaction, for the clock to move two microseconds
	// past where it stood: every unlink is then drained by the script's next
	// read-write commit, whatever the host.
	measureAt := func(name string, home int, op func(sid uint64, i int) error) {
		r0 := count()
		for i := 0; i < orderedGoldenTxns; i++ {
			for until := clk.Read() + 2; clk.Read() < until; {
				runtime.Gosched()
			}
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
	return rows
}

// The golden table: {type and home, messages, CASes, READs, WRITEs, modeled
// ns}, each summed over orderedGoldenTxns transactions.
var orderedGolden = []orderedGoldenRow{
	{"get_subscriber local", 0, 0, 0, 0, 9980},
	{"get_subscriber remote", 100, 0, 0, 0, 641600},
	{"get_subscriber remote, warm", 4, 0, 96, 0, 170336},
	{"get_new_destination local", 0, 0, 0, 0, 6340},
	{"get_new_destination remote", 100, 0, 0, 0, 662000},
	{"get_new_destination remote, warm", 100, 0, 0, 0, 662000},
	{"update_location local", 0, 0, 0, 0, 35620},
	{"update_location remote", 100, 100, 200, 300, 2539200},
	{"toggle_facility local", 0, 0, 0, 0, 110452},
	{"toggle_facility remote", 203, 200, 200, 600, 3150316},
	{"insert_call_fwd local", 1, 0, 0, 0, 44262},
	{"insert_call_fwd remote", 148, 48, 144, 144, 1813112},
	{"delete_call_fwd local", 0, 0, 0, 0, 65406},
	{"delete_call_fwd remote", 147, 48, 48, 144, 1752308},
	{"delete_subscriber local", 1, 0, 0, 0, 349562},
	{"delete_subscriber remote", 299, 410, 410, 1230, 5586485},
	{"insert_subscriber local", 1, 0, 0, 0, 194088},
	{"insert_subscriber remote", 100, 409, 409, 1227, 2769018},
}
