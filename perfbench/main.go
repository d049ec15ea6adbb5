// Command perfbench is the repository's benchmark: it builds a workload's
// inputs from a seed, drives the program through its public entry points,
// checks that the outputs are correct and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run is a separate traced replay that reports per-layer metrics instead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload label-sparse --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for what each workload exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_in_limit_frac", "fraction"},
	{"write_p50_ms", "ms"},
	{"write_in_limit_frac", "fraction"},
	{"capacity_ops_s", "ops/s"},
	{"accuracy", "fraction"},
	{"ok_frac", "fraction"},
	{"heap_mb", "MiB"},
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// scale multiplies every graph size (nodes, edges) and op count; 1 is
	// the benchmark, the package tests run far below it.
	scale  float64
	outDir string
	log    io.Writer
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type workload struct {
	run    func(cfg config) (*report, error)
	traced func(cfg config) (*report, error)
}

var workloads = map[string]workload{
	"label-sparse":  {run: runLabelSparse, traced: traceLabelSparse},
	"patch-read":    {run: runPatchRead, traced: tracePatchRead},
	"mutate-stream": {run: runMutateStream, traced: traceMutateStream},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: label-sparse, patch-read or mutate-stream")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplier on graph sizes and op counts (tests use < 1)")
	outDir := fs.String("out", ".bench_out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (label-sparse, patch-read, mutate-stream), --seconds > 0, --scale > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir, log: stdout}
	fn, defs := w.run, endToEnd
	if *trace == 1 {
		fn, defs = w.traced, perLayer
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return emit(stdout, rep, defs)
}

// emit prints the checks, then every metric with its unit, then the JSON
// result line. A failed check, or a metric the run did not produce, fails
// the run.
func emit(w io.Writer, rep *report, defs []metricDef) int {
	for _, c := range rep.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-28s %s\n", verdict, c.name, c.detail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	correct := rep.correct()
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "metric %-34s missing\n", d.name)
			correct = false
			continue
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
		switch {
		case math.IsNaN(v):
			correct = false
			continue
		case math.IsInf(v, 0):
			// A latency percentile that reaches a failed op: the op missed
			// every limit, which JSON can only say with the largest float.
			v = math.Copysign(math.MaxFloat64, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
