package bench

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"drtm/internal/obs"
)

// Every registered experiment must run end-to-end at quick scale and
// produce a non-empty, well-formed table. testing.Short skips the slower
// workload experiments.
func runSmoke(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res := e.Run(Options{Quick: true, Seed: 1})
	if res.ID != id {
		t.Fatalf("result ID %q != %q", res.ID, id)
	}
	if len(res.Headers) == 0 || len(res.Rows) == 0 {
		t.Fatalf("experiment %s produced an empty table", id)
	}
	for _, row := range res.Rows {
		if len(row) != len(res.Headers) {
			t.Fatalf("experiment %s row width %d != header width %d", id, len(row), len(res.Headers))
		}
	}
	res.Print(os.Stdout)
	return res
}

func TestSmokeTable4(t *testing.T) { runSmoke(t, "table4") }

func TestSmokeFig10a(t *testing.T) {
	res := runSmoke(t, "fig10a")
	// Throughput must fall with payload (bandwidth term).
	if res.Rows[0][2] == res.Rows[len(res.Rows)-1][2] {
		t.Fatal("payload size had no effect on RDMA READ throughput")
	}
}

func TestSmokeFig10b(t *testing.T) { runSmoke(t, "fig10b") }
func TestSmokeFig10c(t *testing.T) { runSmoke(t, "fig10c") }
func TestSmokeFig10d(t *testing.T) { runSmoke(t, "fig10d") }

func TestSmokeFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig11")
}

func TestSmokeFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runSmoke(t, "fig12")
	// DrTM must beat Calvin by an order of magnitude.
	for _, row := range res.Rows {
		ratio := row[4]
		if !strings.HasSuffix(ratio, "x") {
			t.Fatalf("malformed speedup cell %q", ratio)
		}
	}
}

func TestSmokeFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig13")
}

func TestSmokeFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig14")
}

func TestSmokeFig15(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig15")
}

func TestSmokeFig16(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig16")
}

func TestSmokeFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "fig17")
}

func TestSmokeTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runSmoke(t, "table2")
	// Table 2's headline cells: R RD shares with L RD; R WR conflicts.
	if res.Rows[1][1] != "C" || res.Rows[1][2] != "C" {
		t.Fatalf("remote write row = %v, want conflicts", res.Rows[1])
	}
}

func TestSmokeTable6(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "table6")
}

// TestSmokeTPCCTypes: the per-type ledger has a row per transaction type, and
// the leaf cache keeps the two index-heavy types off the tree: a new-order's
// thirteen inserts and a delivery's ten orders — adjacent order lines, each
// read and then written, at ten districts' append points and queue heads
// taking turns — descend about once and seven times (4.6 and 30 with a single
// remembered leaf), each descent accounted to one of the two reasons.
func TestSmokeTPCCTypes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runSmoke(t, "tpcc-types")
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want one per TPC-C transaction type", len(res.Rows))
	}
	limits := map[string]float64{"new-order": 2, "delivery": 10}
	for _, row := range res.Rows {
		limit, gated := limits[row[0]]
		if !gated {
			continue
		}
		delete(limits, row[0])
		var descents, uncovered, full, hits float64
		for i, cell := range []*float64{&descents, &uncovered, &full, &hits} {
			if _, err := fmt.Sscan(row[3+i], cell); err != nil {
				t.Fatalf("%s, cell %q: %v", row[0], row[3+i], err)
			}
		}
		if descents == 0 || descents > limit || hits < 2*descents {
			t.Errorf("%s made %.1f descents and %.1f finger hits per transaction; want at most %.0f descents",
				row[0], descents, hits, limit)
		}
		if math.Abs(uncovered+full-descents) > 0.1 {
			t.Errorf("%s: %.2f descents for no covering leaf + %.2f for a full one, %.1f in all", row[0], uncovered, full, descents)
		}
	}
	if len(limits) != 0 {
		t.Fatalf("no row for %v", limits)
	}
}

// TestSmokeDistWaves: the wave ledger of a distributed SmallBank transaction.
// One lock wave with one CAS, one publish wave with none — no CAS runs after
// the serialization point — under half a lookup wave with the location cache
// on, nothing to validate, and a redo append only under replication.
func TestSmokeDistWaves(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runSmoke(t, "dist-waves")
	if want := 2 * (obs.NumStages + 1); len(res.Rows) != want {
		t.Fatalf("%d rows, want %d: a row per stage and a total, for two workloads", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		var waves, cas float64
		if _, err := fmt.Sscan(row[2], &waves); err != nil {
			t.Fatalf("waves cell %q: %v", row[2], err)
		}
		if _, err := fmt.Sscan(row[4], &cas); err != nil {
			t.Fatalf("CAS cell %q: %v", row[4], err)
		}
		lo, hi, casHi := 0.0, 0.0, 0.0
		switch row[1] {
		case "lookup":
			hi = 0.75
		case "lock":
			lo, hi, casHi = 1, 1.1, 1.1
		case "replicate":
			if row[0] == "smallbank_repl" {
				lo, hi = 0.5, 1
			}
		case "publish":
			lo, hi = 1, 1
		case "abort-release":
			hi = 0.1
		case "all stages":
			lo, hi, casHi = 2, 4, 1.1
		}
		if waves < lo || waves > hi || cas > casHi {
			t.Errorf("%s %s: %.3f waves and %.3f CASes per transaction, want [%.2f, %.2f] waves and at most %.2f CASes",
				row[0], row[1], waves, cas, lo, hi, casHi)
		}
	}
}

func TestSmokeAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runSmoke(t, "ablate-cache")
	runSmoke(t, "ablate-fallback")
	runSmoke(t, "ablate-atomics")
}

func TestSmokeObs(t *testing.T) {
	res := runSmoke(t, "obs")
	// The observability experiment must demonstrate nonzero conflict
	// counters — the whole point of the abort-cause breakdown. Rows are keyed
	// by registry name: counters by event, latencies by phase.
	cell := func(name string) string {
		for _, row := range res.Rows {
			if row[1] == name {
				return row[2]
			}
		}
		t.Fatalf("row %s missing", name)
		return ""
	}
	if v := cell("htm.abort.conflict"); strings.HasPrefix(v, "0 ") {
		t.Errorf("htm conflict aborts = %q, want nonzero", v)
	}
	if v := cell("lock.remote_conflict"); v == "0" {
		t.Errorf("remote lock conflicts = %q, want nonzero", v)
	}
	if v := cell("rdma.cas"); v == "0" {
		t.Errorf("rdma cas = %q, want nonzero", v)
	}
	if v := cell("total"); strings.HasPrefix(v, "n=0 ") {
		t.Errorf("total latency histogram empty: %q", v)
	}
}

func TestSmokeChaos(t *testing.T) {
	res := runSmoke(t, "chaos")
	cell := func(metric string) string {
		for _, row := range res.Rows {
			if row[0] == metric {
				return row[1]
			}
		}
		t.Fatalf("row %s missing", metric)
		return ""
	}
	// The headline: no committed transaction may be lost to a crash.
	if v := cell("client-error"); v != "none" {
		t.Errorf("client error: %s", v)
	}
	if v := cell("balance-conservation"); !strings.HasPrefix(v, "OK") {
		t.Errorf("balance conservation: %s", v)
	}
	// Survivors must make progress while a peer is down, and the crashes
	// must be detected and recovered through the lease-based path.
	if v := cell("commits-during-outage"); v == "0" {
		t.Errorf("no commits during outages")
	}
	if v := cell("detections"); v == "0" {
		t.Errorf("no crash detections")
	}
	if v := cell("recoveries"); v == "0" {
		t.Errorf("no recoveries ran")
	}
	// Every crash must have been repaired — the victim revived — inside the
	// rig's outage bound: "N (recovered: N)".
	var crashes, recovered int
	v := cell("crash-cycles")
	if _, err := fmt.Sscanf(v, "%d (recovered: %d)", &crashes, &recovered); err != nil || crashes == 0 || recovered != crashes {
		t.Errorf("crash cycles: %q, want every crash recovered", v)
	}
	if v := cell("verb-faults"); v == "0" {
		t.Errorf("no verb faults recorded")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table4", "table6",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"ablate-cache", "ablate-fallback", "ablate-atomics",
		"obs", "chaos", "batch", "occ", "failover", "scan",
		"tpcc-types", "dist-waves",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
}
