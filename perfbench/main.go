// Command perfbench is the repository's request-path benchmark. It runs one
// workload against a real reprod process and prints every metric by name
// and unit, checking every answer the server gives:
//
//	perfbench -reprod path/to/reprod -workload mine-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it measures end to end: one load-generator process (this
// one) drives the server over loopback keep-alive HTTP. With -trace 1 it
// replays the same script in process, through each layer's public entry
// points, and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and the human-readable lines printed beside
// them.
type report struct {
	metrics map[string]metric
	errs    []error
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a correctness failure.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Errorf(format, args...))
	}
}

func (r *report) fail(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload: mine-cold, mine-hot or ingest-mine")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	reprod := flag.String("reprod", "", "reprod binary (required with -trace 0)")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for data directories and logs")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	in, err := newInputs(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	logf("# perfbench workload=%s seed=%d seconds=%d trace=%d", w.name, *seed, *seconds, *trace)
	var res result
	if *trace == 1 {
		res, err = runTraced(w, in, *seconds, dir)
	} else {
		if *reprod == "" {
			err = fmt.Errorf("-reprod is required")
		} else {
			// The load generator gets one core's worth of scheduling; the
			// server keeps both.
			runtime.GOMAXPROCS(1)
			res, err = runEndToEnd(w, in, *seconds, *reprod, dir)
		}
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%-28s %14.4f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish turns a report into the result line.
func (r *report) finish(attempted, failed int) result {
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.errs = append(r.errs, fmt.Errorf("metric %s is %v", n, m.Value))
			r.metrics[n] = metric{Value: 0, Unit: m.Unit} // JSON has no NaN
		}
	}
	for _, err := range r.errs {
		logf("CHECK FAILED: %v", err)
	}
	return result{Correct: len(r.errs) == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}
}

func subdir(dir, name string) string { return filepath.Join(dir, name) }
