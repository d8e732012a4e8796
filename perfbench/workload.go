package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ruby/internal/engine"
)

// bench is one named benchmark workload: a set-up, a unit of work the
// measured phase repeats, and the checks that run after it.
type bench interface {
	// setup builds the inputs, starts any service and warms up. A later
	// setup after close starts from scratch.
	setup(ctx context.Context) error
	// unit runs the run's rep-th unit of work. Units cycle through
	// variants() search seeds; units with the same seed do the same work on
	// the same inputs, so their outputs must be identical. When traced, the
	// engines report to the workload's trace metrics and ctx carries the
	// recorder.
	unit(ctx context.Context, traced bool, rep int) (unitOut, error)
	// variants is how many search seeds, derived from the run's seed, the
	// units cycle through. Every run measures at least that many units, and
	// edp_geomean spans all of them, so the quality metric averages over
	// more than one seed's draws.
	variants() int
	// verify checks the outputs of every unit run so far.
	verify() checkResult
	// engineCounts reads the cumulative engine counters of traced units.
	engineCounts() engineCounts
	// probePoints returns the workload's own points for the layer probe.
	probePoints() []probePoint
	close()
}

// newWorkload builds the named workload with inputs generated from seed.
func newWorkload(name string, seed int64, tiny bool) (bench, error) {
	switch name {
	case "dse-random":
		return newDSE("", seed, tiny), nil
	case "dse-guided":
		return newDSE("guided", seed, tiny), nil
	case "network-fuse":
		return newFuse(seed, tiny), nil
	case "serve-mixed":
		return newServe(seed, tiny), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
}

// warmupSeed is the search seed of the dse-* and network-fuse warm-ups. It
// is fixed rather than derived from --seed, so every run's set-up does the
// same work and setup_s moves only when set-up gets cheaper or dearer: with
// the run's seed, the guided warm-up alone spread setup_s by 29% over ten
// seeds.
const warmupSeed = 1

// nproc is the load limit of every workload: searches, search threads,
// clients and connections.
func nproc() int { return runtime.NumCPU() }

// unitOut is what one unit of work produced.
type unitOut struct {
	ops   []float64 // latency of every operation, seconds
	evals int64     // engine evaluations, full and delta
	edps  []float64 // best EDP of every point searched deterministically
	// Fused segments kept, and edges tried, by network searches.
	kept, tried int
	// Request and response body bytes of served requests.
	reqBytes, respBytes int64
	// settle, when set, records the unit's outputs for verify (digests,
	// first-unit results); it runs after the unit's measurement ends.
	settle func()
}

// checkResult counts the operations whose outputs were checked and those
// that failed, with one message per failure.
type checkResult struct {
	attempted, failed int64
	messages          []string
}

func (c *checkResult) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// engineCounts are the evaluation-engine counters the traced run reports.
type engineCounts struct {
	evals, valid, cacheHits, improvements, panics int64
	guidedMoves, guidedRestarts                   int64
	fullEvals                                     int64   // evaluations through the full kernel
	evalSeconds                                   float64 // their lowering plus kernel time
}

func (a engineCounts) sub(b engineCounts) engineCounts {
	return engineCounts{
		evals: a.evals - b.evals, valid: a.valid - b.valid, cacheHits: a.cacheHits - b.cacheHits,
		improvements: a.improvements - b.improvements, panics: a.panics - b.panics,
		guidedMoves: a.guidedMoves - b.guidedMoves, guidedRestarts: a.guidedRestarts - b.guidedRestarts,
		fullEvals: a.fullEvals - b.fullEvals, evalSeconds: a.evalSeconds - b.evalSeconds,
	}
}

// traceMetrics is the benchmark's own engine.Metrics for traced units: the
// program's counters plus the summed latency of every evaluation (the
// engine is built with LatencySampleEvery 1, so none is skipped).
type traceMetrics struct {
	engine.Counters
	timed, evalNanos atomic.Int64
}

// EvalLatency implements engine.Metrics. The engine times full evaluations
// only; delta evaluations reach Evaluation alone.
func (t *traceMetrics) EvalLatency(d time.Duration) {
	t.timed.Add(1)
	t.evalNanos.Add(int64(d))
}

func (t *traceMetrics) counts() engineCounts {
	c := countersOf(&t.Counters)
	c.fullEvals = t.timed.Load()
	c.evalSeconds = float64(t.evalNanos.Load()) / 1e9
	return c
}

func countersOf(c *engine.Counters) engineCounts {
	s := c.Snapshot()
	return engineCounts{
		evals: s.Evaluations, valid: s.Valid, cacheHits: s.CacheHits,
		improvements: s.Improvements, panics: s.Panics,
		guidedMoves: s.GuidedMoves, guidedRestarts: s.GuidedRestarts,
	}
}

// seedLog keeps, per search seed the units cycle through, the first unit's
// results (re-checked by verify) and every unit's output digest.
type seedLog[R any] struct {
	first   []R
	digests [][]string
}

func newSeedLog[R any](variants int) seedLog[R] {
	return seedLog[R]{first: make([]R, variants), digests: make([][]string, variants)}
}

func (l *seedLog[R]) record(v int, res R, digest string) {
	if len(l.digests[v]) == 0 {
		l.first[v] = res
	}
	l.digests[v] = append(l.digests[v], digest)
}

// checkDigests fails every unit whose output digest differs from that of
// the first unit with the same seed, and returns the number of units.
func (l *seedLog[R]) checkDigests(c *checkResult) int64 {
	var n int64
	for _, ds := range l.digests {
		for i, d := range ds {
			if d != ds[0] {
				c.fail("unit %d of its seed: output digest %.12s differs from the first's %.12s", i, d, ds[0])
			}
		}
		n += int64(len(ds))
	}
	return n
}

// sameCost reports whether two costs are identical bit for bit: the JSON
// encoding spells every float in its shortest exact form, so equal bytes
// mean equal bits.
func sameCost(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM, which Linux reports
// as ru_maxrss in KiB), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
