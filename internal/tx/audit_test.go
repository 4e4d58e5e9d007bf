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
// offset and word — a replica region's by the partition it copies too — and
// a write-ahead record's update its row has not reached by worker, table and
// key. A dead machine is not audited.
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
	off, _ = rt.C.Node(1).Unordered(tblAccounts).LookupLocal(3)
	rt.C.Node(1).Unordered(tblAccounts).Arena().StoreWord(kvs.StateOffset(off), held)
	rt.C.Crash(1)
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatalf("audit with node 1 down = %v, want nothing of the dead machine", err)
	}

	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	if err := rmw(rt.Executor(1, 0), 2); err != nil {
		t.Fatal(err)
	}
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatalf("audit after a durable commit: %v", err)
	}
	rt.C.Worker(1, 0).WriteAheadLog.Append(walUpdate(42, 2, 9, 777, 9)) // key 2 is at version 1
	want := "node 1 worker 0: write-ahead record owes table 1 key 2 version 9 (node 0 holds 1)"
	if err := rt.AuditQuiescent(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit = %v, want it to name %q", err, want)
	}
	rt.C.Crash(0)
	if err := rt.AuditQuiescent(); err != nil {
		t.Fatalf("audit with the owed row's node down = %v, want nothing", err)
	}
}
