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
// the audit; a write-locked state word is named by node, region, table, key,
// offset and word — a replica region's by the partition it copies too — and,
// without replication (nothing parks under it), a release-side step still
// parked for a machine that is up by its count. A dead machine is not audited.
func TestAuditQuiescent(t *testing.T) {
	rt, e := replRig(t, func(c *cluster.Config) { c.ReplicationFactor = 1 })
	replica := rt.C.Node(0).Unordered(cluster.CopyRegion(1, tblAccounts, 0))
	if err := replica.Insert(3, []uint64{1000, 3}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{2, 3} {
		if err := rmw(e, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatalf("audit after two commits: %v", err)
	}

	held := clock.WLocked(0)
	primary := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := primary.LookupLocal(3)
	primary.Arena().StoreWord(kvs.StateOffset(off), held)
	roff, _ := replica.LookupLocal(3)
	replica.Arena().StoreWord(kvs.StateOffset(roff), held)
	err := rt.AuditQuiescent()
	for _, want := range []string{
		fmt.Sprintf("node 1 region %d (table %d key 3) offset %d: state word %#x write-locked",
			tblAccounts, tblAccounts, kvs.StateOffset(off), held),
		fmt.Sprintf("node 0 region %d (partition 1's replica of table %d key 3) offset %d: state word %#x write-locked",
			cluster.CopyRegion(1, tblAccounts, 0), tblAccounts, kvs.StateOffset(roff), held),
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit = %v, want it to name %q", err, want)
		}
	}

	rt, _ = replRig(t, func(*cluster.Config) {})
	rt.C.Crash(0) // a step parked while node 0 was down, still parked once it is up
	rt.defer_(0, func(*Runtime) {})
	rt.C.Revive(0)
	if err := rt.AuditQuiescent(); err == nil || !strings.Contains(err.Error(), "node 0: 1 release-side steps parked") {
		t.Fatalf("audit = %v, want it to name node 0's parked step", err)
	}
	off, _ = rt.C.Node(1).Unordered(tblAccounts).LookupLocal(3)
	rt.C.Node(1).Unordered(tblAccounts).Arena().StoreWord(kvs.StateOffset(off), held)
	rt.C.Crash(1)
	if err := rt.AuditQuiescent(); err == nil || strings.Contains(err.Error(), "node 1") {
		t.Fatalf("audit with node 1 down = %v, want node 0's parked step alone", err)
	}
}
