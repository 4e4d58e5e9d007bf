package drtm

import (
	"fmt"
	"strings"
	"testing"

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

// TestAdaptiveStatsAndTrace: a reader whose transaction loses its validation
// to a writer eight times in a row (tx's escalateAfter) escalates on its ninth
// attempt, whose fallback leases the read; Stats reports both routes on the
// adapt line, and the trace ring's record of the transaction carries its
// attempts, its last abort cause and the fallback outcome.
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
	// write sails through — then validation fails. The ninth attempt escalates.
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
		if ev.Attempts != losses+1 || ev.Abort != obs.CauseSpec || ev.Outcome != obs.OutcomeFallback {
			t.Fatalf("traced %d attempts, last abort %v, outcome %v; want %d, %v, fallback",
				ev.Attempts, ev.Abort, ev.Outcome, losses+1, obs.CauseSpec)
		}
	}
	if !traced {
		t.Fatal("the reader's transaction is missing from the trace ring")
	}
}
