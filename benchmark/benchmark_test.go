package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// testParams runs everything at 1 % of the benchmark's populations; the run
// lengths below are 1 % of a 10 s run.
func testParams(t *testing.T) params {
	return params{seed: 7, scale: 0.01, outDir: t.TempDir()}
}

const (
	testRun   = 100 * time.Millisecond
	testTrace = testRun / 3
)

// signed lists the metrics that are differences between two runs and may be
// negative; every other metric is a count, a time or a share.
var signed = map[string]bool{
	"obs.trace_overhead_share":    true,
	"obs.trace_model_drift_share": true,
}

func requireMetrics(t *testing.T, where string, defs []metricDef, ms map[string]metric) {
	t.Helper()
	if len(ms) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", where, len(ms), len(defs))
	}
	for _, d := range defs {
		m, ok := ms[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", where, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v, want finite", where, d.Name, m.Value)
		case m.Value < 0 && !signed[d.Name]:
			t.Errorf("%s: metric %s = %v, want non-negative", where, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", where, d.Name, m.Unit, d.Unit)
		}
	}
}

func TestEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := testParams(t)
			res, err := runWorkload(w, p, testRun, 2, testTrace, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Check != "pass" {
				t.Errorf("check: %s (%s)", res.Check, res.CheckErr)
			}
			if res.Failed != 0 || res.Committed == 0 {
				t.Errorf("attempted %d, committed %d, failed %d; want commits and no failures",
					res.Attempted, res.Committed, res.Failed)
			}
			requireMetrics(t, "end_to_end", endToEnd, res.EndToEnd)
			requireMetrics(t, "per_layer", workloadLayer(), res.PerLayer)
			for _, d := range endToEnd {
				if res.EndToEnd[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0; the contract needs metrics that never are", d.Name)
				}
			}
			// The replication layer works on smallbank_repl and nowhere else.
			for name, m := range res.PerLayer {
				if !strings.HasPrefix(name, "cluster.") {
					continue
				}
				if w.name != "smallbank_repl" && m.Value != 0 {
					t.Errorf("%s = %v on an unreplicated workload, want 0", name, m.Value)
				}
			}
			if w.name == "smallbank_repl" {
				for _, name := range []string{"cluster.log_appends_per_txn", "cluster.backup_bytes_per_txn", "cluster.promote_ms", "nvram.log_records_per_txn"} {
					if res.PerLayer[name].Value <= 0 {
						t.Errorf("%s = %v on smallbank_repl, want > 0", name, res.PerLayer[name].Value)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(p.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace not written: %v", err)
			}
		})
	}
}

func TestLadder(t *testing.T) {
	p := testParams(t)
	v, err := runLadder(p, time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := v.pick(ladderLayer, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireMetrics(t, "ladder", ladderLayer, ms)
	for _, d := range ladderLayer {
		if d.Unit == "ns" && ms[d.Name].Value <= 0 {
			t.Errorf("rung %s took %v ns", d.Name, ms[d.Name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(p.outDir, "trace-ladder.json")); err != nil {
		t.Errorf("ladder trace not written: %v", err)
	}
}

// TestCheckFailurePath feeds the conservation gate a wrong expected total and
// follows the failure to what the command reports.
func TestCheckFailurePath(t *testing.T) {
	if err := checkConservation(1000, 1000); err != nil {
		t.Errorf("equal totals: %v", err)
	}
	if err := checkConservation(981, 1000); err == nil || !strings.Contains(err.Error(), "-19") {
		t.Errorf("short total: got %v, want an error naming the difference", err)
	}
	broken := workload{name: "smallbank_wrong_total", build: func(p params) (*deployment, error) {
		d, err := buildSmallBankDist(p)
		if err == nil {
			good := d.check
			d.check = func() error {
				if err := good(); err != nil {
					return err
				}
				return checkConservation(1, 2)
			}
		}
		return d, err
	}}
	var log bytes.Buffer
	res, err := runWorkload(broken, testParams(t), testRun, 1, 0, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check != "fail" || !strings.Contains(res.CheckErr, "conservation") {
		t.Errorf("check = %q (%q), want a conservation failure", res.Check, res.CheckErr)
	}
	if !strings.Contains(log.String(), "CHECK FAILED") || !strings.Contains(log.String(), "diff -1") {
		t.Errorf("failure not printed with its diff: %q", log.String())
	}
}

// flakyClient fails every 500th transaction of the client it wraps.
type flakyClient struct {
	client
	n int
}

func (f *flakyClient) runOne() (int, outcome, error) {
	if f.n++; f.n%500 == 0 {
		return txnSmallBankBase, failed, errors.New("boom")
	}
	return f.client.runOne()
}

// TestFailedTransactionIsReported follows a failed transaction to the counts
// the driver reads and to the line that says what it returned.
func TestFailedTransactionIsReported(t *testing.T) {
	flaky := workload{name: "smallbank_flaky", build: func(p params) (*deployment, error) {
		d, err := buildSmallBankDist(p)
		if err == nil {
			d.clients[0] = &flakyClient{client: d.clients[0]}
		}
		return d, err
	}}
	var log bytes.Buffer
	res, err := runWorkload(flaky, testParams(t), testRun, 1, 0, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Attempted != res.Committed+res.Failed {
		t.Errorf("attempted %d, committed %d, failed %d; want failures counted apart from commits",
			res.Attempted, res.Committed, res.Failed)
	}
	if want := "FAILED TRANSACTION: client 0: send_payment: boom"; !strings.Contains(log.String(), want) {
		t.Errorf("log %q does not say %q", log.String(), want)
	}
}

func TestHistogramAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]int64, 200_000)
	for i := range samples {
		// Log-uniform over 50 ns .. 50 ms, the range transactions span.
		samples[i] = int64(50 * math.Pow(10, 6*rng.Float64()))
		h.record(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		want := float64(samples[int(math.Ceil(p/100*float64(len(samples))))-1])
		got := h.percentile(p)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("p%v = %.0f, sorted slice says %.0f (more than 2 %% apart)", p, got, want)
		}
	}
	var empty hist
	if empty.percentile(50) != 0 {
		t.Error("empty histogram has a percentile")
	}
	for _, ns := range []int64{0, 1, 63, 64, 65, 1000, 1 << 41, 1 << 50} {
		lower, width := bucketBounds(bucketOf(ns))
		if clamped := min(ns, 1<<histMaxExp-1); clamped < lower || clamped >= lower+width {
			t.Errorf("%d ns landed in bucket [%d, %d)", ns, lower, lower+width)
		}
	}
}

func TestMedianIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 6), n=4) == [1.5, 3.0, 4.5]
	if m, s := medianIQR([]float64{5, 1, 4, 2, 3}); m != 3 || s != 1 {
		t.Errorf("1..5: median %v spread %v, want 3 and 1", m, s)
	}
	// statistics.quantiles([10, 12, 13], n=4) == [10.0, 12.0, 13.0]
	if m, s := medianIQR([]float64{12, 10, 13}); m != 12 || s != 0.25 {
		t.Errorf("three samples: median %v spread %v, want 12 and 0.25", m, s)
	}
	if m, s := medianIQR([]float64{7}); m != 7 || s != 0 {
		t.Errorf("one sample: median %v spread %v", m, s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, startNS: 0, endNS: 100},
		{name: "declare", parent: 0, startNS: 5, endNS: 30},
		{name: "execute", parent: 0, startNS: 30, endNS: 95},
		{name: "body", parent: 2, startNS: 40, endNS: 60},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 10, "declare": 25, "execute": 45, "body": 20}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, got[name], ns)
		}
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "model_txn_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "model_p50_us", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		def      metricDef
		old, new metric
		want     string
	}{
		{higher, metric{Value: 100}, metric{Value: 95}, verdictOK},
		{higher, metric{Value: 100}, metric{Value: 85}, verdictRegressed},
		{higher, metric{Value: 100}, metric{Value: 120}, verdictImproved},
		{lower, metric{Value: 100}, metric{Value: 120}, verdictRegressed},
		{lower, metric{Value: 100}, metric{Value: 80}, verdictImproved},
		{higher, metric{Value: 100, Spread: 0.3}, metric{Value: 85}, verdictUnresolved},
		{higher, metric{Value: 0}, metric{Value: 85}, verdictUnresolved},
	} {
		if _, got := judge(tc.def, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.def.Name, tc.old, tc.new, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(rate, failedShare float64) *report {
		rep := &report{Workloads: map[string]*workloadResult{}, Ladder: map[string]metric{"memory.cas_ns": {Value: 28, Unit: "ns"}}}
		for _, w := range workloads {
			res := &workloadResult{Name: w.name, Check: "pass", FailedShare: failedShare, EndToEnd: map[string]metric{}}
			for _, d := range endToEnd {
				res.EndToEnd[d.Name] = metric{Value: 50, Unit: d.Unit}
			}
			res.EndToEnd["model_txn_per_s"] = metric{Value: rate, Unit: "txn/s"}
			rep.Workloads[w.name] = res
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		path := filepath.Join(dir, name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1000, 0))
	for _, tc := range []struct {
		name      string
		rep       *report
		regressed bool
		want      string
	}{
		{"same.json", mk(1040, 0), false, verdictOK},
		{"slow.json", mk(700, 0), true, verdictRegressed},
		{"fast.json", mk(1400, 0), false, verdictImproved},
		{"failing.json", mk(1000, 0.01), true, verdictRegressed},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name, tc.rep))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed %v, want %v with a %q row:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

// benchmarkSpec is BENCHMARK.json, the file the driver reads.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json's workloads and metrics from the program's tables")

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the tables
// the program reports from; after changing a table, run
// go test ./benchmark -run BenchmarkJSON -update.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	want := spec
	want.Workloads = nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadSpec{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	want.EndToEnd, want.PerLayer = endToEnd, perLayer()
	if len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(want.PerLayer))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if reflect.DeepEqual(spec, want) {
		return
	}
	if !*update {
		t.Fatalf("BENCHMARK.json and the program's tables differ; run go test ./benchmark -run BenchmarkJSON -update\nfile:  %+v\ntables: %+v", spec, want)
	}
	out, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
