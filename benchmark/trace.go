package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"drtm/internal/obs"
)

// traceRing is the engine's per-worker trace ring size in the traced run: the
// last 64 Ki transactions of each worker are enough for phase medians, and
// the rings stay a fixed 6 MB however long the run is.
const traceRing = 1 << 16

// writeTrace writes spans as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto): one complete event per span, with the
// span's index and its parent's in args so the tree survives the format.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"attempts":%d}}`,
			s.name, s.worker+1, float64(s.startNS)/1e3, float64(s.endNS-s.startNS)/1e3, i, s.parent, s.attempts)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it its children cover. Children of one parent do not
// overlap here (each client is a single goroutine), so covered time is the
// sum of child durations.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.endNS - s.startNS
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.name] += s.endNS - s.startNS - covered[i]
	}
	return self
}

// phaseMedians drains the engine's trace rings and returns the median
// virtual Start (lock), HTM and Commit phase of committed read-write
// transactions in microseconds, over the transactions that have the phase:
// a local transaction has no Start or Commit phase and would drag those
// medians to 0.
func phaseMedians(reg *obs.Registry) (lockUS, htmUS, commitUS float64) {
	var lock, htm, commit []int64
	for _, ev := range reg.DrainTrace() {
		if ev.Kind != obs.TraceTx || ev.Outcome == obs.OutcomeAbort {
			continue
		}
		if ev.LockNS > 0 {
			lock = append(lock, ev.LockNS)
		}
		if ev.HTMNS > 0 {
			htm = append(htm, ev.HTMNS)
		}
		if ev.CommitNS > 0 {
			commit = append(commit, ev.CommitNS)
		}
	}
	med := func(xs []int64) float64 {
		if len(xs) == 0 {
			return 0
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return float64(xs[len(xs)/2]) / 1e3
	}
	return med(lock), med(htm), med(commit)
}
