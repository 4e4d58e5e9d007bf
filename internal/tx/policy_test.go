package tx

import (
	"testing"

	"drtm/internal/clock"
	"drtm/internal/obs"
)

func TestResolvePolicy(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	cases := []struct {
		name     string
		runtime  ReadPolicy
		override ReadPolicy
		want     ReadPolicy
	}{
		{"zero-value runtime is lease", PolicyDefault, PolicyDefault, PolicyLease},
		{"runtime-wide policy", PolicyAdaptive, PolicyDefault, PolicyAdaptive},
		{"override beats runtime policy", PolicyAdaptive, PolicySpeculative, PolicySpeculative},
	}
	for _, c := range cases {
		rt.ReadPolicy, e.override = c.runtime, c.override
		if got := e.resolvePolicy(); got != c.want {
			t.Errorf("%s: resolved %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAdaptiveRouting drives one remote bucket through the full adaptive
// cycle: cold routes speculate, conflict heat flips the bucket to the lease
// arm (counting the cold→hot switch), and conflict-free decay flips it back.
func TestAdaptiveRouting(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 64, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	// Short half-life so the hot→cold decay happens within a few reads.
	rt.SetPolicyConfig(PolicyConfig{EWMAHalfLife: 2, HotThreshold: 2.0, Hysteresis: 0.5})
	e := rt.Executor(0, 0)
	reg := rt.C.Obs
	const key = 1 // homed on node 1: every access is remote

	read := func() {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				_, err := lc.Read(tblAccounts, key)
				return err
			})
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Cold bucket: the read speculates.
	read()
	if n := reg.Total(obs.EvAdaptSpec); n != 1 {
		t.Fatalf("cold route: EvAdaptSpec = %d, want 1", n)
	}
	if n := reg.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("cold route: EvSpecRead = %d, want 1", n)
	}

	// Conflict heat crosses the hot threshold: the bucket switches once. (A
	// lost speculative read weighs the attempts its transaction has already
	// lost that way: this one is a fourth loss.)
	e.wasted = 3
	e.feedConflict(&recHandle{table: tblAccounts, node: 1, region: tblAccounts, key: key})
	if n := reg.Total(obs.EvArmSwitchToLease); n != 1 {
		t.Fatalf("after conflicts: EvArmSwitchToLease = %d, want 1", n)
	}
	if rt.HotBuckets() != 1 {
		t.Fatalf("HotBuckets = %d, want 1", rt.HotBuckets())
	}

	// Hot bucket: the next read takes a lease, not a spec READ.
	read()
	if n := reg.Total(obs.EvAdaptLease); n != 1 {
		t.Fatalf("hot route: EvAdaptLease = %d, want 1", n)
	}
	if n := reg.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("hot route still speculated: EvSpecRead = %d, want 1", n)
	}
	if n := reg.Total(obs.EvLeaseGrant) + reg.Total(obs.EvLeaseShare); n == 0 {
		t.Fatal("hot route took no lease")
	}

	// Conflict-free reads decay the heat below the exit threshold
	// (half-life 2 accesses, exit at 1.0): the bucket reverts to spec.
	for i := 0; i < 20 && reg.Total(obs.EvArmSwitchToSpec) == 0; i++ {
		read()
	}
	if n := reg.Total(obs.EvArmSwitchToSpec); n != 1 {
		t.Fatalf("decay: EvArmSwitchToSpec = %d, want 1", n)
	}
	if rt.HotBuckets() != 0 {
		t.Fatalf("HotBuckets after decay = %d, want 0", rt.HotBuckets())
	}
	if n := reg.Total(obs.EvSpecRead); n < 2 {
		t.Fatalf("reverted bucket did not speculate: EvSpecRead = %d", n)
	}
	// The switch counters must agree with the table's classification.
	net := reg.Total(obs.EvArmSwitchToLease) - reg.Total(obs.EvArmSwitchToSpec)
	if int(net) != rt.HotBuckets() {
		t.Fatalf("switch-count difference %d != HotBuckets %d", net, rt.HotBuckets())
	}
}

// TestFeedConflictGatedOnAdaptive: static arms must not accrete heat.
func TestFeedConflictGatedOnAdaptive(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	rt.ReadPolicy = PolicySpeculative
	e := rt.Executor(0, 0)
	e.wasted = 10
	e.feedConflict(&recHandle{table: tblAccounts, node: 1, region: tblAccounts, key: 1})
	if n := rt.HotBuckets(); n != 0 {
		t.Fatalf("static policy accreted %d hot buckets", n)
	}
	if n := rt.C.Obs.Total(obs.EvArmSwitchToLease); n != 0 {
		t.Fatalf("static policy counted %d arm switches", n)
	}
}

// TestExecWithOverride: a per-transaction policy override forces the arm
// for that transaction only, leaving the runtime-wide policy untouched.
func TestExecWithOverride(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	rt.ReadPolicy = PolicyLease
	e := rt.Executor(0, 0)
	reg := rt.C.Obs

	body := func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil { // remote
			return err
		}
		return tx.Execute(func(lc *Local) error {
			_, err := lc.Read(tblAccounts, 1)
			return err
		})
	}
	if err := e.ExecWith(PolicySpeculative, body); err != nil {
		t.Fatal(err)
	}
	if n := reg.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("override: EvSpecRead = %d, want 1", n)
	}
	// The override must not leak into the next transaction.
	if err := e.Exec(body); err != nil {
		t.Fatal(err)
	}
	if n := reg.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("override leaked: EvSpecRead = %d, want 1", n)
	}
	if n := reg.Total(obs.EvLeaseGrant) + reg.Total(obs.EvLeaseShare); n == 0 {
		t.Fatal("runtime-wide lease arm not restored after override")
	}

	// Read-only override: spec arm, no lease CAS.
	if err := e.ExecROWith(PolicySpeculative, func(ro *RO) error {
		_, err := ro.Read(tblAccounts, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Total(obs.EvSpecRead); n != 2 {
		t.Fatalf("RO override: EvSpecRead = %d, want 2", n)
	}
}

// TestExecWithExclusive: the PolicyExclusive override stages reads as
// exclusive locks (the per-transaction form of the Figure 17 ablation).
func TestExecWithExclusive(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	err := e.ExecWith(PolicyExclusive, func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil {
			return err
		}
		if s := host.Arena().LoadWord(off + 2); !clock.IsWriteLocked(s) {
			t.Errorf("PolicyExclusive read did not take the exclusive lock: %x", s)
		}
		return tx.Execute(func(lc *Local) error {
			_, err := lc.Read(tblAccounts, 1)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
