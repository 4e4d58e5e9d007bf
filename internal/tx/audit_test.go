package tx

import (
	"fmt"
	"strings"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
)

// TestAuditQuiescent: a runtime whose workers committed and stopped passes
// the audit; a write-locked state word is named by node, region, offset and
// word, and a release-side step still parked for a machine that is up by its
// count. A dead machine is not audited.
func TestAuditQuiescent(t *testing.T) {
	rt, e := replRig(t, func(c *cluster.Config) { c.ReplicationFactor = 1 })
	for _, k := range []uint64{2, 3} {
		if err := rmw(e, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatalf("audit after two commits: %v", err)
	}

	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(3)
	held := clock.WLocked(0)
	host.Arena().StoreWord(kvs.StateOffset(off), held)
	rt.C.Crash(0) // a step parked while node 0 was down, still parked once it is up
	rt.defer_(0, func(*Runtime) {})
	rt.C.Revive(0)
	err := rt.AuditQuiescent()
	for _, want := range []string{
		fmt.Sprintf("node 1 region %d offset %d: state word %#x write-locked", tblAccounts, kvs.StateOffset(off), held),
		"node 0: 1 release-side steps parked",
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit = %v, want it to name %q", err, want)
		}
	}

	rt.C.Crash(1)
	if err := rt.AuditQuiescent(); err == nil || strings.Contains(err.Error(), "node 1") {
		t.Fatalf("audit with node 1 down = %v, want node 0's parked step alone", err)
	}
}
