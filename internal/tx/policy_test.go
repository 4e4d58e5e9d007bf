package tx

import (
	"errors"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
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

// TestAdaptiveEscalation is PolicyAdaptive's one rule, scripted on one
// goroutine: a writer on the hot record's home node tries once, between the
// reader's Stage and its Execute, to rewrite the record under each of the
// reader's first `losses` attempts. Against a speculative read the write lands
// and the reader's validation fails; against a lease it is refused. A
// transaction that has lost escalateAfter validations leases every read of its
// next attempt, one that has lost fewer leases nothing, and PolicySpeculative
// never leases. ExecWith(PolicyAdaptive) on a lease runtime follows the same
// rule. Leases never expire here, so nothing depends on real time.
func TestAdaptiveEscalation(t *testing.T) {
	const hot, cold = 1, 3 // both homed on node 1: every read is remote
	errGaveUp := errors.New("the writer lost its one try")
	for _, tc := range []struct {
		name          string
		runtime, with ReadPolicy // the runtime's policy, and ExecWith's (PolicyDefault: Exec)
		losses        int        // attempts the writer tries to rewrite the hot record under
		leaseFrom     int        // the first attempt that leases, 0 for none
		commitAt      int
	}{
		{"adaptive, one loss short", PolicyAdaptive, PolicyDefault, escalateAfter - 1, 0, escalateAfter},
		{"adaptive, escalated", PolicyAdaptive, PolicyDefault, escalateAfter + 1, escalateAfter + 1, escalateAfter + 1},
		{"ExecWith adaptive, one loss short", PolicyLease, PolicyAdaptive, escalateAfter - 1, 0, escalateAfter},
		{"ExecWith adaptive, escalated", PolicyLease, PolicyAdaptive, escalateAfter + 1, escalateAfter + 1, escalateAfter + 1},
		{"speculative", PolicySpeculative, PolicyDefault, escalateAfter + 1, 0, escalateAfter + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) { c.LeaseMicros = 1 << 40 })
			defer stop()
			rt.ReadPolicy = tc.runtime
			reader, writer := rt.Executor(0, 0), rt.Executor(1, 0)
			reg := rt.C.Obs
			leases := func() int64 { return reg.Total(obs.EvLeaseGrant) + reg.Total(obs.EvLeaseShare) }
			bump := func() bool {
				tries := 0
				err := writer.Exec(func(tx *Tx) error {
					if tries++; tries > 1 {
						return errGaveUp
					}
					if err := tx.W(tblAccounts, hot); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						v, err := lc.Read(tblAccounts, hot)
						if err != nil {
							return err
						}
						return lc.Write(tblAccounts, hot, []uint64{v[0] + 1, v[1]})
					})
				})
				if err != nil && err != errGaveUp {
					t.Fatal(err)
				}
				return err == nil
			}
			exec := reader.Exec
			if tc.with != PolicyDefault {
				exec = func(build func(*Tx) error) error { return reader.ExecWith(tc.with, build) }
			}

			attempts, landed := 0, 0
			if err := exec(func(tx *Tx) error {
				attempts++
				l0 := leases()
				if err := tx.Stage(Access{Table: tblAccounts, Key: hot}, Access{Table: tblAccounts, Key: cold}); err != nil {
					return err
				}
				leased, want := tc.leaseFrom > 0 && attempts >= tc.leaseFrom, int64(0)
				if leased {
					want = 2
				}
				if got := leases() - l0; got != want {
					t.Errorf("attempt %d leased %d reads, want %d", attempts, got, want)
				}
				if attempts <= tc.losses {
					if bump() {
						landed++
						if leased {
							t.Errorf("attempt %d: the writer rewrote a leased record", attempts)
						}
					} else if !leased {
						t.Errorf("attempt %d: the writer was refused a record nobody leased", attempts)
					}
				}
				return tx.Execute(func(lc *Local) error {
					for _, k := range []uint64{hot, cold} {
						if _, err := lc.Read(tblAccounts, k); err != nil {
							return err
						}
					}
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			if attempts != tc.commitAt {
				t.Errorf("committed on attempt %d, want %d", attempts, tc.commitAt)
			}
			if n := reg.Total(obs.EvSpecValidateFail); n != int64(landed) {
				t.Errorf("%d validations failed, want one per landed write (%d)", n, landed)
			}
			specRoutes, leaseRoutes := int64(0), int64(0)
			if tc.runtime == PolicyAdaptive || tc.with == PolicyAdaptive {
				specRoutes = 2 * int64(attempts)
				if tc.leaseFrom > 0 {
					specRoutes, leaseRoutes = 2*int64(tc.leaseFrom-1), 2*int64(attempts-tc.leaseFrom+1)
				}
			}
			if s, l := reg.Total(obs.EvAdaptSpec), reg.Total(obs.EvAdaptLease); s != specRoutes || l != leaseRoutes {
				t.Errorf("routes: %d spec, %d lease; want %d, %d", s, l, specRoutes, leaseRoutes)
			}
			if v, _ := rt.C.Node(1).Unordered(tblAccounts).Get(hot); v[0] != 1000+uint64(landed) {
				t.Errorf("hot record holds %d after %d landed writes", v[0], landed)
			}
		})
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
