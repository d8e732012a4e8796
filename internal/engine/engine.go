// Package engine is the evaluation pipeline between the searchers and the
// pure cost model. Every consumer that evaluates mappings in bulk — the
// searchers, the suite sweeps, the experiment runners, the HTTP server —
// routes through an Engine, which layers three production concerns on top of
// nest.Evaluator without touching the model itself:
//
//   - cancellation: batch evaluation honors a context, so searches stop
//     promptly on deadlines and client disconnects;
//   - isolation: a panicking model call is recovered, retried and degraded
//     to an invalid Cost instead of taking the process down;
//   - instrumentation: a pluggable Metrics hook counts evaluations, validity,
//     improvement events and per-search wall time, with an atomic default
//     implementation exportable via expvar/JSON.
//
// The Engine is safe for concurrent use; a zero Config yields a transparent
// pass-through (no metrics) so Engine results are always bit-identical to
// calling nest.Evaluator.Evaluate directly.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ruby/internal/mapping"
	"ruby/internal/nest"
	"ruby/internal/obs"
)

// CancelledReason marks a Cost slot that was skipped because the batch's
// context was cancelled before the mapping was evaluated. It can never
// collide with a real model verdict (model reasons never carry the
// "engine:" prefix).
const CancelledReason = "engine: evaluation cancelled"

// Cancelled reports whether a cost is a cancellation placeholder rather than
// a real model verdict.
func Cancelled(c *nest.Cost) bool { return !c.Valid && c.Reason == CancelledReason }

// Config tunes an Engine. The zero value is a transparent pass-through.
type Config struct {
	// Metrics receives evaluation and search events. nil disables
	// instrumentation.
	Metrics Metrics
	// Workers bounds EvaluateBatch parallelism (default: NumCPU, capped at
	// 24 to match the paper's search setup).
	Workers int
	// LatencySampleEvery reports every Nth full evaluation's model
	// latency to Metrics.EvalLatency (counted per worker). 0 selects the
	// default of 64 — two clock reads per 64 evaluations keep the timing
	// overhead far below the hot path's noise floor — 1 times every
	// evaluation, and a negative value disables latency sampling.
	LatencySampleEvery int
}

// defaultLatencySampleEvery is the sampling period Config.LatencySampleEvery
// zero selects.
const defaultLatencySampleEvery = 64

// Engine evaluates mappings for one (workload, architecture) pair.
type Engine struct {
	ev          *nest.Evaluator
	metrics     Metrics
	workers     int
	sampleEvery uint64 // 0 = latency sampling disabled
	nEvals      atomic.Uint64
	// evalHook, when non-nil, replaces the raw model call — test-only
	// injection for exercising the panic guard.
	evalHook func(*mapping.Mapping) nest.Cost
}

// New builds an Engine from a Config. A nil-safe Metrics and a worker
// default are filled in.
func (c Config) New(ev *nest.Evaluator) *Engine {
	e := &Engine{ev: ev, metrics: c.Metrics, workers: c.Workers}
	if e.metrics == nil {
		e.metrics = NopMetrics
	}
	if e.workers <= 0 {
		e.workers = runtime.NumCPU()
		if e.workers > 24 {
			e.workers = 24
		}
	}
	switch {
	case c.LatencySampleEvery == 0:
		e.sampleEvery = defaultLatencySampleEvery
	case c.LatencySampleEvery > 0:
		e.sampleEvery = uint64(c.LatencySampleEvery)
	}
	return e
}

// New builds a pass-through Engine (no metrics) — the adapter the
// legacy non-context search entry points use.
func New(ev *nest.Evaluator) *Engine { return Config{}.New(ev) }

// Evaluator exposes the wrapped pure cost model.
func (e *Engine) Evaluator() *nest.Evaluator { return e.ev }

// Metrics exposes the engine's metrics hook (never nil), so searchers can
// record search-level events (improvements, wall time) alongside the
// per-evaluation counters the Engine records itself.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Evaluate runs one mapping through the model. A panicking model call is
// isolated, retried and — if it keeps panicking — degraded to an invalid
// Cost with a PanicReason (see evalGuarded).
func (e *Engine) Evaluate(m *mapping.Mapping) nest.Cost {
	c := e.timedEval(m, nil, e.nEvals.Add(1))
	e.metrics.Evaluation(c.Valid)
	return c
}

// timedEval runs one guarded model call, timing every sampleEvery-th call
// and reporting it to Metrics.EvalLatency. n is the caller's running count
// of evaluations — per Worker on the search hot path, engine-wide
// for Engine.Evaluate — so the sampling clock adds no shared state to
// worker loops.
//
//ruby:hotpath
func (e *Engine) timedEval(m *mapping.Mapping, w *Worker, n uint64) nest.Cost {
	if e.sampleEvery == 0 || n%e.sampleEvery != 0 {
		return e.evalGuarded(m, w)
	}
	start := time.Now()
	c := e.evalGuarded(m, w)
	e.metrics.EvalLatency(time.Since(start))
	return c
}

// Worker is a per-goroutine evaluation handle: the engine's compiled plan
// plus a private scratch. It keeps the hot path allocation-free — no pool
// traffic, no locks — while sharing the engine's metrics. A Worker
// must not be used from more than one goroutine at a time.
type Worker struct {
	e       *Engine
	scratch *nest.Scratch
	n       uint64 // evaluations; drives latency sampling
}

// NewWorker builds an evaluation worker bound to the engine.
func (e *Engine) NewWorker() *Worker {
	return &Worker{e: e, scratch: e.ev.Plan().NewScratch()}
}

// Evaluate is Engine.Evaluate on the worker's scratch. The returned Cost is
// stable (detached from the scratch).
func (w *Worker) Evaluate(m *mapping.Mapping) nest.Cost {
	return w.EvaluateShared(m).Clone()
}

// EvaluateShared evaluates m without detaching the result: the returned
// Cost's per-level slices alias the worker's scratch and are overwritten by
// the worker's next evaluation. Callers that retain a cost across
// evaluations (e.g. a search's running best) must Clone it. This is the
// zero-allocation steady-state path for tight loops.
func (w *Worker) EvaluateShared(m *mapping.Mapping) nest.Cost {
	w.n++
	c := w.e.timedEval(m, w, w.n)
	w.e.metrics.Evaluation(c.Valid)
	return c
}

// EvaluateBatch evaluates a slice of mappings in parallel, preserving order.
// When ctx is cancelled mid-batch, the remaining slots are filled with
// CancelledReason placeholders instead of being evaluated; callers detect
// them with Cancelled. A nil ctx means no cancellation.
//
// Each call reports its wall time to Metrics.BatchLatency and, when ctx
// carries an obs.Recorder, records one "eval-batch" trace span — per-batch
// granularity keeps tracing off the per-evaluation hot path.
func (e *Engine) EvaluateBatch(ctx context.Context, ms []*mapping.Mapping) []nest.Cost {
	_, span := obs.StartSpan(ctx, "eval-batch")
	start := time.Now()
	out := e.evaluateBatch(ctx, ms)
	e.metrics.BatchLatency(time.Since(start), len(ms))
	span.End()
	return out
}

func (e *Engine) evaluateBatch(ctx context.Context, ms []*mapping.Mapping) []nest.Cost {
	out := make([]nest.Cost, len(ms))
	workers := e.workers
	if workers > len(ms) {
		workers = len(ms)
	}
	if workers <= 1 {
		for i, m := range ms {
			if ctx != nil && ctx.Err() != nil {
				out[i] = nest.Cost{Valid: false, Reason: CancelledReason}
				continue
			}
			out[i] = e.Evaluate(m)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := e.NewWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					out[i] = nest.Cost{Valid: false, Reason: CancelledReason}
					continue
				}
				out[i] = wk.Evaluate(ms[i])
			}
		}()
	}
	wg.Wait()
	return out
}
