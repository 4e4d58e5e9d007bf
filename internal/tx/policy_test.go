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
		name    string
		runtime ReadPolicy
		want    ReadPolicy
	}{
		{"zero-value runtime is lease", PolicyDefault, PolicyLease},
		{"runtime-wide policy", PolicyAdaptive, PolicyAdaptive},
		{"set between transactions", PolicyLease, PolicyLease},
	}
	for _, c := range cases {
		rt.ReadPolicy = c.runtime
		if got := e.resolvePolicy(); got != c.want {
			t.Errorf("%s: resolved %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAdaptiveEscalation is the escalation rule, scripted on one goroutine: a
// writer on the hot record's home node rewrites it once between the reader's
// Stage and its Execute, under each of the reader's first `losses` attempts.
// Every speculative attempt loses its validation to that write. From attempt
// escalateAfter+1 on the reader escalates: its Start phase holds nothing, so
// the write lands again, and its fallback leases both reads after it — an
// adaptive transaction counts them (EvAdaptLease) — and commits on the value
// the writer left. A lease runtime switched to PolicyAdaptive between
// transactions follows the same rule. Leases never expire here, so nothing
// depends on real time.
func TestAdaptiveEscalation(t *testing.T) {
	const hot, cold = 1, 3 // both homed on node 1: every read is remote
	errGaveUp := errors.New("the writer lost its one try")
	for _, tc := range []struct {
		name          string
		runtime, with ReadPolicy // the runtime's policy at the start, and the one set before the reader's transaction (PolicyDefault: unchanged)
		losses        int        // attempts the writer rewrites the hot record under
		commitAt      int
	}{
		{"adaptive, one loss short", PolicyAdaptive, PolicyDefault, escalateAfter - 1, escalateAfter},
		{"adaptive, escalated", PolicyAdaptive, PolicyDefault, escalateAfter + 1, escalateAfter + 1},
		{"lease runtime set adaptive, one loss short", PolicyLease, PolicyAdaptive, escalateAfter - 1, escalateAfter},
		{"lease runtime set adaptive, escalated", PolicyLease, PolicyAdaptive, escalateAfter + 1, escalateAfter + 1},
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
			if tc.with != PolicyDefault {
				rt.ReadPolicy = tc.with
			}

			attempts, landed := 0, 0
			var read uint64
			if err := reader.Exec(func(tx *Tx) error {
				attempts++
				l0 := leases()
				if err := tx.Stage(Access{Table: tblAccounts, Key: hot}, Access{Table: tblAccounts, Key: cold}); err != nil {
					return err
				}
				if got := leases() - l0; got != 0 {
					t.Errorf("attempt %d leased %d reads in its Start phase, want none", attempts, got)
				}
				if attempts <= tc.losses {
					if !bump() {
						t.Errorf("attempt %d: the writer was refused a record nobody holds", attempts)
					}
					landed++
				}
				return tx.Execute(func(lc *Local) error {
					v, err := lc.Read(tblAccounts, hot)
					if err != nil {
						return err
					}
					read = v[0]
					_, err = lc.Read(tblAccounts, cold)
					return err
				})
			}); err != nil {
				t.Fatal(err)
			}
			if attempts != tc.commitAt {
				t.Errorf("committed on attempt %d, want %d", attempts, tc.commitAt)
			}
			escalated := int64(max(attempts-escalateAfter, 0))
			if n := reg.Total(obs.EvSpecValidateFail); n != int64(min(landed, escalateAfter)) {
				t.Errorf("%d validations failed, want one per write landed under a speculative attempt (%d)", n, min(landed, escalateAfter))
			}
			if e, f := reg.Total(obs.EvTxEscalate), reg.Total(obs.EvFallback); e != escalated || f != escalated {
				t.Errorf("%d escalated attempts, %d fallbacks; want %d of each", e, f, escalated)
			}
			if got := leases(); got != 2*escalated {
				t.Errorf("%d leases taken, want %d (the fallback's two reads)", got, 2*escalated)
			}
			specRoutes, leaseRoutes := 2*int64(attempts)-2*escalated, 2*escalated
			if s, l := reg.Total(obs.EvAdaptSpec), reg.Total(obs.EvAdaptLease); s != specRoutes || l != leaseRoutes {
				t.Errorf("routes: %d spec, %d lease; want %d, %d", s, l, specRoutes, leaseRoutes)
			}
			if v, _ := rt.C.Node(1).Unordered(tblAccounts).Get(hot); v[0] != 1000+uint64(landed) || read != v[0] {
				t.Errorf("hot record holds %d after %d landed writes; the committed attempt read %d", v[0], landed, read)
			}
		})
	}
}

// TestExecWithExclusive: PolicyExclusive, set between transactions, stages
// reads as exclusive locks (the Figure 17 ablation).
func TestExecWithExclusive(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	rt.ReadPolicy = PolicyExclusive
	err := e.Exec(func(tx *Tx) error {
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
