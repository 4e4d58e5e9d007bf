package bench

import (
	"testing"

	"drtm/internal/tx"
)

func TestSmokeAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive experiment is slow")
	}
	runSmoke(t, "adaptive")
}

// TestAdaptiveAcceptance gates the adaptive read-arm selector against both
// static arms: per-record cost within 5% of the best static arm at every
// point, strictly cheaper than each static arm on at least one. Every point
// is deterministic — a failure is a regression, not a schedule:
//
//	quiet points (theta 0.20 / 0.99, write%% 0, 2 workers/node) — no
//	conflicts, so the clocks do not depend on the interleaving: adaptive must
//	route everything speculatively (matching the spec arm within 5%) and
//	strictly dodge the lease arm's CAS tax.
//
//	script points (measureAdaptiveScript: one goroutine, the writer's turns
//	scripted) — with one lost validation per hot transaction no cascade
//	exists: adaptive must never switch and cost exactly what spec costs, the
//	best static there; with six consecutive losses per hot transaction it
//	must turn the hot bucket to leases within the first cascade and come out
//	strictly cheaper than BOTH statics.
//
// The free-running contended sweep (`drtm-bench -exp adaptive`) is evidence,
// not a gate: its hot cell used to be one, and with two identical routings
// reading 0.8x–1.4x of each other on two cores it gated the scheduler. The
// decision behind the selector's rule — no lease without a cascade — is in
// EXPERIMENTS.md, "Adaptive read-arm selection".
func TestAdaptiveAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive acceptance is slow")
	}

	// ---- quiet read-only points -------------------------------------------
	for _, theta := range []float64{0.20, 0.99} {
		o := Options{Quick: true, Seed: 1}
		lease := measureAdaptiveW(o, 60, theta, 0, tx.PolicyLease, 2)
		spec := measureAdaptiveW(o, 60, theta, 0, tx.PolicySpeculative, 2)
		adapt := measureAdaptiveW(o, 60, theta, 0, tx.PolicyAdaptive, 2)
		if lease.perRecNS <= 0 || spec.perRecNS <= 0 || adapt.perRecNS <= 0 {
			t.Fatalf("theta=%.2f: missing samples: lease=%v spec=%v adaptive=%v",
				theta, lease.perRecNS, spec.perRecNS, adapt.perRecNS)
		}
		if best := min(spec.perRecNS, lease.perRecNS); adapt.perRecNS > 1.05*best {
			t.Errorf("theta=%.2f w=0: adaptive %.0fns > 1.05x best static %.0fns",
				theta, adapt.perRecNS, best)
		}
		// Strictly better than the lease arm: a conflict-free workload must
		// not pay the read-lock CAS.
		if adapt.perRecNS >= lease.perRecNS {
			t.Errorf("theta=%.2f w=0: adaptive %.0fns did not beat lease %.0fns",
				theta, adapt.perRecNS, lease.perRecNS)
		}
		if adapt.switches != 0 {
			t.Errorf("theta=%.2f w=0: conflict-free run flipped %d buckets", theta, adapt.switches)
		}
	}

	// ---- scripted points ---------------------------------------------------
	script := func(losses int) (lease, spec, adapt adaptMetrics) {
		return measureAdaptiveScript(tx.PolicyLease, losses),
			measureAdaptiveScript(tx.PolicySpeculative, losses),
			measureAdaptiveScript(tx.PolicyAdaptive, losses)
	}
	lease, spec, adapt := script(1)
	if spec.perRecNS >= lease.perRecNS {
		t.Errorf("1-loss script: spec %.0fns is not the cheaper static (lease %.0fns): the script lost its premise",
			spec.perRecNS, lease.perRecNS)
	}
	if adapt.switches != 0 || adapt.perRecNS != spec.perRecNS {
		t.Errorf("1-loss script: adaptive %.0fns with %d switches, want spec's %.0fns and none: isolated losses are no cascade",
			adapt.perRecNS, adapt.switches, spec.perRecNS)
	}
	lease, spec, adapt = script(6)
	if adapt.switches == 0 {
		t.Error("6-loss script: the cascade never turned the hot bucket to leases")
	}
	if adapt.perRecNS >= spec.perRecNS || adapt.perRecNS >= lease.perRecNS {
		t.Errorf("6-loss script: adaptive %.0fns did not beat both statics (lease %.0fns, spec %.0fns)",
			adapt.perRecNS, lease.perRecNS, spec.perRecNS)
	}
	if again := measureAdaptiveScript(tx.PolicyAdaptive, 6); again != adapt {
		t.Errorf("6-loss script is not deterministic: %+v then %+v", adapt, again)
	}
}
