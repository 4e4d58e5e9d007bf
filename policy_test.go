package drtm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"drtm/internal/obs"
)

// TestOptionsPolicyValidation: an unset policy defaults to PolicyAdaptive, an
// explicit one is kept, and nonsense is an Open error.
func TestOptionsPolicyValidation(t *testing.T) {
	norm := func(o Options) (Options, error) {
		o.Nodes, o.WorkersPerNode = 1, 1
		return o.normalize()
	}
	cases := []struct {
		name    string
		in      Options
		want    ReadPolicy
		wantErr string
	}{
		{"default is adaptive", Options{}, PolicyAdaptive, ""},
		{"explicit lease", Options{ReadPolicy: PolicyLease}, PolicyLease, ""},
		{"explicit exclusive", Options{ReadPolicy: PolicyExclusive}, PolicyExclusive, ""},
		{"explicit mvcc", Options{ReadPolicy: PolicyMVCC}, PolicyMVCC, ""},
		{"unknown policy", Options{ReadPolicy: ReadPolicy(99)}, 0, "unknown"},
	}
	for _, c := range cases {
		got, err := norm(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if got.ReadPolicy != c.want {
			t.Errorf("%s: resolved policy %v, want %v", c.name, got.ReadPolicy, c.want)
		}
	}
}

// TestPolicyOverrideE2E: a per-transaction ExecWith/ExecROWith override
// forces the spec arm on a lease-policy deployment, end to end.
func TestPolicyOverrideE2E(t *testing.T) {
	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 1, ReadPolicy: PolicyLease},
		func(table int, key uint64) int { return int(key) % 2 })
	defer db.Close()
	db.CreateHashTable(tblAcct, 1024, 1)
	for k := uint64(1); k <= 8; k++ {
		if err := db.Load(tblAcct, k, []uint64{100}); err != nil {
			t.Fatal(err)
		}
	}

	// Forced spec arm: the remote read must cost no lease.
	if err := db.ExecWith(0, 0, PolicySpeculative, func(tx *Tx) error {
		if err := tx.R(tblAcct, 1); err != nil { // key 1 → node 1: remote
			return err
		}
		return tx.Execute(func(lc *Local) error {
			_, err := lc.Read(tblAcct, 1)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Count("spec.read") != 1 {
		t.Fatalf("spec.read = %d, want 1", s.Count("spec.read"))
	}
	if s.Count("lease.grant")+s.Count("lease.share") != 0 {
		t.Fatalf("override transaction took %d leases, want 0", s.Count("lease.grant")+s.Count("lease.share"))
	}

	// A read-only scan forcing spec: still no lease CAS.
	if err := db.ExecROWith(0, 0, PolicySpeculative, func(ro *RO) error {
		for k := uint64(1); k <= 7; k += 2 { // odd keys → node 1: remote
			if _, err := ro.Read(tblAcct, k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Count("spec.read") != 5 {
		t.Fatalf("spec.read after RO scan = %d, want 5", s.Count("spec.read"))
	}
	if s.Count("lease.grant")+s.Count("lease.share") != 0 {
		t.Fatalf("RO override took %d leases, want 0", s.Count("lease.grant")+s.Count("lease.share"))
	}

	// The deployment's lease policy is untouched: a plain Exec leases.
	if err := db.Executor(0, 0).Exec(func(tx *Tx) error {
		if err := tx.R(tblAcct, 3); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			_, err := lc.Read(tblAcct, 3)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Count("lease.grant")+s.Count("lease.share") == 0 {
		t.Fatal("runtime-wide lease policy lost after overrides")
	}
	if s.Count("spec.read") != 5 {
		t.Fatalf("plain Exec speculated: spec.read = %d, want 5", s.Count("spec.read"))
	}
}

// TestAdaptiveStatsAndTrace: a reader whose transaction loses its validation
// to a writer eight times in a row (tx's escalateAfter) leases on its ninth
// attempt; Stats reports both routes on the adapt line, and the trace ring's
// record of the transaction carries its attempts and its last abort cause.
func TestAdaptiveStatsAndTrace(t *testing.T) {
	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 2},
		func(table int, key uint64) int { return int(key) % 2 })
	defer db.Close()
	db.CreateHashTable(tblAcct, 1024, 1)
	for k := uint64(1); k <= 4; k++ {
		if err := db.Load(tblAcct, k, []uint64{100}); err != nil {
			t.Fatal(err)
		}
	}
	db.EnableTracing(256)
	defer db.DisableTracing()

	// Writer on node 1 bumps key 1 while a reader on node 0 reads it
	// adaptively.
	reader := db.Executor(0, 0)
	writer := db.Executor(1, 0)
	write := func() error {
		return writer.Exec(func(tx *Tx) error {
			if err := tx.W(tblAcct, 1); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, err := lc.Read(tblAcct, 1)
				if err != nil {
					return err
				}
				return lc.Write(tblAcct, 1, []uint64{v[0] + 1})
			})
		})
	}
	// Deterministic cascade: stage the read speculatively, let the writer
	// commit a version bump underneath it — a spec read holds no lock, so the
	// write sails through — then validation fails. The ninth attempt leases.
	const losses = 8
	bumps := 0
	if err := reader.Exec(func(tx *Tx) error {
		if err := tx.R(tblAcct, 1); err != nil {
			return err
		}
		if bumps < losses {
			bumps++
			if err := write(); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			_, err := lc.Read(tblAcct, 1)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	if s.Count("spec.validate_fail") != losses || s.Count("adapt.route_spec") != losses || s.Count("adapt.route_lease") != 1 {
		t.Fatalf("validate-fails %d, spec routes %d, lease routes %d; want %d, %d, 1",
			s.Count("spec.validate_fail"), s.Count("adapt.route_spec"), s.Count("adapt.route_lease"), losses, losses)
	}
	if want := fmt.Sprintf("adapt:    route_spec=%d route_lease=1\n", losses); !strings.Contains(s.String(), want) {
		t.Fatalf("Stats.String lacks %q:\n%s", want, s)
	}

	traced := false
	for _, ev := range db.DrainTrace() {
		if ev.Kind != TraceTx || ev.Node != 0 || ev.Worker != 0 {
			continue
		}
		traced = true
		if ev.Attempts != losses+1 || ev.Abort != obs.CauseSpec || ev.Outcome != obs.OutcomeCommit {
			t.Fatalf("traced %d attempts, last abort %v, outcome %v; want %d, %v, commit",
				ev.Attempts, ev.Abort, ev.Outcome, losses+1, obs.CauseSpec)
		}
	}
	if !traced {
		t.Fatal("the reader's transaction is missing from the trace ring")
	}
}

// TestMVCCPolicyE2E: PolicyMVCC through the public API — a PolicyMVCC
// deployment builds the version chains, ExecROWith(PolicyMVCC) resolves a
// consistent snapshot with no lease traffic, and the Stats MVCC counters move.
// Any other policy builds no chains, and the same read-only transaction runs
// on the confirm wave.
func TestMVCCPolicyE2E(t *testing.T) {
	part := func(table int, key uint64) int { return int(key) % 2 }
	plain := MustOpen(Options{Nodes: 2, WorkersPerNode: 1}, part)
	defer plain.Close()
	plain.CreateHashTable(tblAcct, 1024, 1)
	if err := plain.Load(tblAcct, 1, []uint64{100}); err != nil {
		t.Fatal(err)
	}
	if err := plain.ExecROWith(0, 0, PolicyMVCC, func(ro *RO) error {
		_, err := ro.Read(tblAcct, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if d := plain.C.MVCCDepth(); d != 0 {
		t.Fatalf("PolicyAdaptive deployment has chain depth %d, want 0", d)
	}
	if s := plain.Stats(); s.Count("mvcc.read") != 0 || s.Count("spec.read") != 1 {
		t.Fatalf("chainless PolicyMVCC read: mvcc.read %d, spec.read %d; want 0, 1",
			s.Count("mvcc.read"), s.Count("spec.read"))
	}

	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 1, ReadPolicy: PolicyMVCC}, part)
	defer db.Close()
	db.CreateHashTable(tblAcct, 1024, 1)
	for k := uint64(1); k <= 4; k++ {
		if err := db.Load(tblAcct, k, []uint64{100}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite key 1 so a version gets retired into its chain.
	if err := db.ExecWith(0, 0, PolicyLease, func(tx *Tx) error {
		if err := tx.W(tblAcct, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAcct, 1, []uint64{250})
		})
	}); err != nil {
		t.Fatal(err)
	}
	// The snapshot stamp trails the soft clock by a tick; let it pass the
	// write so the RO sees the new value.
	time.Sleep(time.Millisecond)

	before := db.Stats()
	var got []uint64
	if err := db.ExecROWith(0, 0, PolicyMVCC, func(ro *RO) error {
		v, err := ro.Read(tblAcct, 1) // remote: node 1
		if err != nil {
			return err
		}
		got = append(got[:0], v...)
		_, err = ro.Read(tblAcct, 2) // local
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got[0] != 250 {
		t.Fatalf("snapshot read = %v, want [250]", got)
	}
	d := db.Stats().Delta(before)
	if d.Count("mvcc.read") < 2 {
		t.Fatalf("mvcc.read = %d, want >= 2", d.Count("mvcc.read"))
	}
	if d.Count("lease.grant") != 0 || d.Count("spec.read") != 0 {
		t.Fatalf("MVCC RO took a confirm-wave arm: leases=%d specs=%d",
			d.Count("lease.grant"), d.Count("spec.read"))
	}
	s := db.Stats()
	if s.Count("mvcc.retire") == 0 {
		t.Fatal("overwrite retired no version into the chain")
	}
	if s.Latency("mvcc-ro").Count == 0 {
		t.Fatal("no mvcc-ro phase latency recorded")
	}
	if !strings.Contains(s.String(), "mvcc:") {
		t.Fatal("Stats.String missing the mvcc row")
	}
}
