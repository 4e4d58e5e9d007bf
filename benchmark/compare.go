package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// failedShareBound is how much failed_share may rise, absolutely: its healthy
// value is 0, so a share of the parent's value would be no bound at all.
const failedShareBound = 0.001

// verdict of one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's new value with its old one. change is the signed
// share of the old value by which the metric got better (+) or worse (-).
// A change inside the bound is ok; outside it is improved or regressed,
// unless a recorded within-run spread is as wide as the bound — then the two
// files cannot resolve it.
func judge(d metricDef, old, new metric) (change float64, verdict string) {
	if old.Value == 0 || math.IsNaN(old.Value) || math.IsNaN(new.Value) {
		return 0, verdictUnresolved
	}
	change = (new.Value - old.Value) / math.Abs(old.Value)
	if d.Better == "lower" {
		change = -change
	}
	switch {
	case math.Abs(change) <= d.Bound:
		return change, verdictOK
	case math.Max(old.Spread, new.Spread) > d.Bound:
		return change, verdictUnresolved
	case change < 0:
		return change, verdictRegressed
	}
	return change, verdictImproved
}

// compareFiles prints, per workload, every end-to-end metric of the two
// reports with its ratio (new ÷ old, the base is old), bound and verdict,
// then the per-layer and ladder metrics without verdicts. It reports
// whether any metric regressed.
func compareFiles(out io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "old: %s  commit %s seed %d seconds %g\n", oldPath, old.Header.Commit, old.Header.Seed, old.Header.Seconds)
	fmt.Fprintf(out, "new: %s  commit %s seed %d seconds %g\n", newPath, cur.Header.Commit, cur.Header.Seed, cur.Header.Seconds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range workloads {
		o, n := old.Workloads[w.name], cur.Workloads[w.name]
		if o == nil || n == nil {
			fmt.Fprintf(tw, "\n%s\tmissing from one report\t\t\t\t%s\n", w.name, verdictUnresolved)
			continue
		}
		fmt.Fprintf(tw, "\n%s\told\tnew\tnew/old\tbound\tverdict\n", w.name)
		for _, d := range endToEnd {
			om, nm := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			_, v := judge(d, om, nm)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(tw, "  %s [%s, %s is better]\t%.4f\t%.4f\t%.3fx\t%.2f\t%s\n",
				d.Name, d.Unit, d.Better, om.Value, nm.Value, nm.Value/om.Value, d.Bound, v)
		}
		v := verdictOK
		if n.FailedShare-o.FailedShare > failedShareBound {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(tw, "  failed_share [ratio, lower is better]\t%.4f\t%.4f\t%+.4f abs\t%.3f abs\t%s\n",
			o.FailedShare, n.FailedShare, n.FailedShare-o.FailedShare, failedShareBound, v)
		if o.Check != "pass" || n.Check != "pass" {
			regressed = regressed || n.Check != "pass"
			fmt.Fprintf(tw, "  check\t%s\t%s\t\t\t\n", o.Check, n.Check)
		}
		layerRows(tw, o.PerLayer, n.PerLayer)
	}
	fmt.Fprintf(tw, "\nladder\told\tnew\tnew/old\t\t\n")
	layerRows(tw, old.Ladder, cur.Ladder)
	return regressed, tw.Flush()
}

// layerRows lists layer metrics side by side, without a verdict: they have
// no bound, they say where an end-to-end change came from.
func layerRows(tw io.Writer, old, cur map[string]metric) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old[name], cur[name]
		if o.Value == 0 && n.Value == 0 {
			continue // not applicable to this workload on either side
		}
		fmt.Fprintf(tw, "  %s [%s]\t%.4f\t%.4f\t%.3fx\t\t\n", name, n.Unit, o.Value, n.Value, ratio(n.Value, o.Value))
	}
}
