// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 5.4 and Section 7),
// plus the ablations called out in DESIGN.md. Each experiment is a named
// entry in the Registry producing a Result (the same rows/series the paper
// reports); cmd/drtm-bench runs them and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Methodology: workloads run for real (goroutine workers, genuine
// conflicts, aborts, retries and recovery), while *reported* throughput and
// latency come from the calibrated virtual-time cost model — see
// internal/vtime and DESIGN.md. Throughput = committed work / max worker
// virtual time; for Calvin the serial lock-manager time also bounds it.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tx"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks populations and iteration counts for smoke tests.
	Quick bool
	// Seed randomizes workloads deterministically.
	Seed int64
}

// Result is a regenerated table or figure.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form note (cost-model constants, caveats).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	render := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	render(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	render(sep)
	for _, row := range r.Rows {
		render(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Result
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

// Register adds an experiment (called from init functions).
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// Experiments lists registered experiments sorted by ID.
func Experiments() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared measurement helpers ----------------------------------------

// simLease is the lease configuration used by all experiments: scaled up
// from the paper's 0.4/1.0 ms because the correctness machinery runs on
// real time on an oversubscribed simulation host (see DESIGN.md).
const (
	simLeaseMicros   = 5_000
	simROLeaseMicros = 10_000
)

// simClusterConfig builds the standard experiment cluster config.
func simClusterConfig(nodes, workers int) cluster.Config {
	cfg := cluster.DefaultConfig(nodes, workers)
	cfg.LeaseMicros = simLeaseMicros
	cfg.ROLeaseMicros = simROLeaseMicros
	return cfg
}

// throughput computes committed/sec from per-worker virtual clocks:
// aggregate committed work divided by the longest virtual timeline.
func throughput(committed int64, workers []*cluster.Worker, extra ...time.Duration) float64 {
	var maxT time.Duration
	for _, w := range workers {
		if t := w.VClock.Now(); t > maxT {
			maxT = t
		}
	}
	for _, t := range extra {
		if t > maxT {
			maxT = t
		}
	}
	if maxT == 0 {
		return 0
	}
	return float64(committed) / maxT.Seconds()
}

// runWorkers drives fn concurrently on every given worker; fn receives the
// worker index and must run its share of transactions.
func runWorkers(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// resetClocks zeroes worker clocks and histograms after population noise.
func resetClocks(rt *tx.Runtime) {
	for _, w := range rt.C.Workers() {
		w.VClock.Reset()
	}
	rt.C.Obs.Reset()
}

// totals sums events over every worker shard of rt's cluster.
func totals(rt *tx.Runtime, evs ...obs.Event) (n int64) {
	for _, ev := range evs {
		n += rt.C.Obs.Total(ev)
	}
	return n
}

// htmAborts is the HTM region aborts the transaction layer booked in rt's
// cluster, every cause.
func htmAborts(rt *tx.Runtime) int64 { return rt.C.Obs.Snapshot().Count("htm.abort") }

// fmtMops renders ops/sec in millions.
func fmtMops(v float64) string { return fmt.Sprintf("%.2fM", v/1e6) }

// fmtK renders ops/sec in thousands.
func fmtK(v float64) string { return fmt.Sprintf("%.1fk", v/1e3) }
