// Command benchmark is the repository's benchmark: four closed-loop OLTP
// workloads on a 2-node × 1-worker simulated cluster, measured on both of
// the engine's clocks (host wall time and internal/vtime model time), with a
// per-layer ladder and a traced run. See README.md in this directory.
//
//	go run ./benchmark --workload smallbank_dist --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -out new.json          # every workload + the ladder
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// header records what a set of numbers was measured on.
type header struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// report is the -out file: every workload's metrics plus the ladder.
type report struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Ladder    map[string]metric          `json:"ladder"`
}

// driverResult is the one JSON object the benchmark contract asks for on the
// last line of a single-workload run.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: every workload and the ladder")
		seed    = flag.Int64("seed", 42, "seed of the transaction mix and keys")
		seconds = flag.Float64("seconds", 10, "length of each measured run")
		trace   = flag.Int("trace", 0, "single workload: 0 reports the end-to-end metrics of an untraced run, 1 the per-layer metrics (traced run + ladder)")
		scale   = flag.Float64("scale", 1, "multiplies table populations and run lengths (tests use 0.01)")
		out     = flag.String("out", "", "all: write the JSON report here (default benchmark/out/results.json)")
		compare = flag.Bool("compare", false, "compare two -out reports: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *scale <= 0 {
		fatal(fmt.Errorf("-seconds and -scale must be positive"))
	}
	p := params{seed: *seed, scale: *scale, outDir: filepath.Join("benchmark", "out")}
	dur := time.Duration(*seconds * *scale * float64(time.Second))
	if dur < time.Millisecond {
		fatal(fmt.Errorf("-seconds × -scale is %v; a run needs at least 1ms", dur))
	}
	hdr := newHeader(*seed, *seconds, *scale)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g scale=%g\n",
		hdr.NProc, hdr.GoMaxProcs, hdr.GoVersion, hdr.Commit, hdr.Seed, hdr.Seconds, hdr.Scale)

	var ok bool
	var err error
	if *name == "all" {
		path := *out
		if path == "" {
			path = filepath.Join(p.outDir, "results.json")
		}
		ok, err = runAll(p, hdr, dur, path)
	} else {
		ok, err = runOne(p, *name, dur, *trace != 0)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func newHeader(seed int64, seconds, scale float64) header {
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Scale: scale,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// setupsPerRun is how many times a measured run sets its workload up;
// setup_s is their median.
const setupsPerRun = 3

// ladderRepShare sizes a ladder repetition from the run length: 10 s runs
// give 40 ms repetitions, 5 per rung, about 6 s for the whole ladder.
const ladderRepShare = 0.004

// runOne is the contract's single-workload run: it prints every metric of
// the selected kind by name and, as the last line, the driverResult. trace
// selects the per-layer metrics, which cost an untraced half-length run (the
// counters and the tracing-overhead baseline), a traced half-length run on a
// fresh deployment, and the ladder.
func runOne(p params, name string, dur time.Duration, trace bool) (bool, error) {
	w, found := findWorkload(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	var (
		res  *workloadResult
		defs []metricDef
		ms   map[string]metric
		err  error
	)
	if !trace {
		if res, err = runWorkload(w, p, dur, setupsPerRun, 0, os.Stdout); err != nil {
			return false, err
		}
		defs, ms = endToEnd, res.EndToEnd
	} else {
		if res, err = runWorkload(w, p, dur/2, 1, dur/2, os.Stdout); err != nil {
			return false, err
		}
		ladder, err := runLadder(p, time.Duration(float64(dur)*ladderRepShare), os.Stdout)
		if err != nil {
			return false, err
		}
		defs, ms = perLayer(), res.PerLayer
		lm, err := ladder.pick(ladderLayer, nil)
		if err != nil {
			return false, err
		}
		for k, m := range lm {
			ms[k] = m
		}
	}
	fmt.Printf("%s: check %s, attempted %d, committed %d (latency samples), failed %d, measured %.2f s\n",
		w.name, res.Check, res.Attempted, res.Committed, res.Failed, res.MeasuredS)
	printMetrics(os.Stdout, "", defs, ms)
	// The contract's metric objects carry a value and a unit, nothing else.
	for k, m := range ms {
		ms[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(driverResult{
		Correct: res.Check == "pass", Attempted: res.Attempted, Failed: res.Failed, Metrics: ms,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Check == "pass", nil
}

// traceShare is the traced run's length as a share of the measured run's
// when every workload is run in one command.
const traceShare = 1.0 / 3

// runAll runs every workload (measured, checked, then traced) and the
// ladder, prints every metric and writes the report to path. It returns
// false when any correctness gate failed.
func runAll(p params, hdr header, dur time.Duration, path string) (bool, error) {
	rep := report{Header: hdr, Workloads: map[string]*workloadResult{}}
	ok := true
	for _, w := range workloads {
		res, err := runWorkload(w, p, dur, setupsPerRun, time.Duration(float64(dur)*traceShare), os.Stdout)
		if err != nil {
			return false, err
		}
		rep.Workloads[w.name] = res
		ok = ok && res.Check == "pass"
		fmt.Printf("== %s: check %s, attempted %d, committed %d (latency samples), failed %d, measured %.2f s\n",
			w.name, res.Check, res.Attempted, res.Committed, res.Failed, res.MeasuredS)
		printMetrics(os.Stdout, "  ", endToEnd, res.EndToEnd)
		printMetrics(os.Stdout, "  ", perLayer(), res.PerLayer)
	}
	ladder, err := runLadder(p, time.Duration(float64(dur)*ladderRepShare), os.Stdout)
	if err != nil {
		return false, err
	}
	if rep.Ladder, err = ladder.pick(ladderLayer, nil); err != nil {
		return false, err
	}
	fmt.Println("== ladder")
	printMetrics(os.Stdout, "  ", ladderLayer, rep.Ladder)
	if err := writeReport(path, &rep); err != nil {
		return false, err
	}
	fmt.Printf("report written to %s\n", path)
	return ok, nil
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep report
	if err := json.NewDecoder(io.LimitReader(f, 64<<20)).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
