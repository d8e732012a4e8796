// Command perfbench is the repository benchmark. It runs one named workload
// through the mapper's public entry points for a fixed time, checks every
// output it produced, and prints one JSON result line as the last line of
// standard output.
//
//	bash perfbench/run.sh --workload dse-random --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it is a separate traced run that reports the
// per-layer metrics and writes a Chrome trace under --trace-dir. A failed
// output check makes the command exit non-zero. See README.md for what each
// workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Workload names, in BENCHMARK.json order.
var workloadNames = []string{"dse-random", "dse-guided", "network-fuse", "serve-mixed"}

// options are the command-line knobs shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size; the metrics keep
	// their names and units but measure almost nothing. Only the tests set
	// it.
	tiny     bool
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: dse-random | dse-guided | network-fuse | serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	flag.StringVar(&o.traceDir, "trace-dir", "out", "directory the traced run writes its Chrome trace to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1

	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark invocation and writes its report to out, the
// result line last. An error means no result could be produced at all; a
// produced result with failed checks comes back with Correct false.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var res *result
	if o.trace {
		res, err = tracedRun(ctx, w, o, out)
	} else {
		res, err = endToEndRun(ctx, w, o, out)
	}
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// pJToJ converts the cost model's picojoules to joules. edp_geomean is
// reported in J.cycles so that it prints as an ordinary decimal: in
// pJ.cycles a sweep's EDP is about 1e19, which JSON readers that decode
// numbers without a fraction as 64-bit integers cannot hold.
const pJToJ = 1e-12

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median. Every set-up but the last is torn down again.
const setupRepeats = 7

// endToEndRun measures the untraced workload: repeated set-up, then units of
// work until the measured phase is over, then the output checks.
func endToEndRun(ctx context.Context, w bench, o options, out io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var units []unitStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(units) < w.variants() || time.Now().Before(deadline) {
		us, err := measureUnit(ctx, w, false, len(units))
		if err != nil {
			return nil, err
		}
		units = append(units, us)
	}
	chk := w.verify()
	for _, msg := range chk.messages {
		fmt.Fprintln(out, "check failed:", msg)
	}

	var wall, cpu, alloc, ops, evalRate, opRate, edps []float64
	var evals int64
	var total float64
	for i, u := range units {
		wall = append(wall, u.wall)
		cpu = append(cpu, u.cpu)
		alloc = append(alloc, u.allocMB)
		ops = append(ops, u.out.ops...)
		evalRate = append(evalRate, float64(u.out.evals)/u.wall)
		opRate = append(opRate, float64(len(u.out.ops))/u.wall)
		if i < w.variants() {
			edps = append(edps, u.out.edps...)
		}
		evals += u.out.evals
		total += u.wall
	}
	res := &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"wall_s":         {median(wall), "s"},
			"cpu_s":          {median(cpu), "s"},
			"evals_per_s":    {median(evalRate), "1/s"},
			"edp_geomean":    {geomean(edps) * pJToJ, "J.cycles"},
			"alloc_mb":       {median(alloc), "MB"},
			"latency_p50_ms": {1e3 * quantile(ops, 0.50), "ms"},
			"latency_p99_ms": {1e3 * quantile(ops, tailQuantile(len(ops))), "ms"},
			"ops_per_s":      {median(opRate), "1/s"},
		},
	}
	fmt.Fprintf(out, "%s seed %d: %d units, %d operations, %d evaluations in %.2fs; %d/%d checks failed\n",
		o.workload, o.seed, len(units), len(ops), evals, total, chk.failed, chk.attempted)
	printMetrics(out, res.Metrics)
	return res, nil
}

// tailQuantile is the quantile latency_p99_ms reports for n operations:
// the 99th percentile, or the highest percentile with at least ten samples
// beyond it when a run has fewer than 1000 operations.
func tailQuantile(n int) float64 {
	if q := 1 - 10/float64(n); q < 0.99 {
		return max(q, 0.5)
	}
	return 0.99
}

// unitStats is one measured unit of work.
type unitStats struct {
	out     unitOut
	wall    float64 // seconds
	cpu     float64 // process user+sys seconds
	allocMB float64 // bytes allocated, MiB
}

// measureUnit runs one unit of work and records its wall time, process CPU
// time and allocated bytes, then lets the workload record its outputs.
func measureUnit(ctx context.Context, w bench, traced bool, rep int) (unitStats, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	out, err := w.unit(ctx, traced, rep)
	wall := time.Since(start).Seconds()
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return unitStats{}, fmt.Errorf("unit: %w", err)
	}
	if out.settle != nil {
		out.settle()
	}
	return unitStats{
		out: out, wall: wall, cpu: (cpu1 - cpu0).Seconds(),
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
	}, nil
}

// printMetrics writes a name-sorted "name value unit" table.
func printMetrics(out io.Writer, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}
