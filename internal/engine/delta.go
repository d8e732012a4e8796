package engine

import (
	"ruby/internal/mapping"
	"ruby/internal/nest"
)

// Delta is the engine-level handle for incremental evaluation: one
// nest.DeltaEval session plus the engine's instrumentation. Local searchers
// (hill climbing, annealing) seed it with their current mapping, then
// evaluate Move proposals at delta cost instead of re-running the full
// kernel per neighbor. One Delta per goroutine; the Engine stays shared.
//
// The delta path deliberately bypasses the engine's panic guard: the kernel
// operates on an already validated lowering, so a panic there is a
// programming error the differential tests exist to catch. Evaluation counts still flow to Metrics, so search
// telemetry is comparable across the full and incremental paths.
type Delta struct {
	e  *Engine
	de *nest.DeltaEval
}

// NewDelta builds an incremental-evaluation session bound to the engine.
func (e *Engine) NewDelta() *Delta {
	return &Delta{e: e, de: e.ev.Plan().NewDeltaEval()}
}

// Seed lowers m and fully evaluates it, making it the session's base
// mapping. The seed evaluation is not reported to Metrics (searchers seed
// from an already-counted best, so counting it again would skew
// evaluations-per-improvement telemetry). The returned Cost's per-level
// slices alias the session scratch; retain with Clone.
func (d *Delta) Seed(m *mapping.Mapping) nest.Cost {
	ev := d.e.ev
	dm, err := m.Dense(ev.Work, ev.Arch, ev.Slots)
	if err != nil {
		return nest.Cost{Valid: false, Reason: err.Error()}
	}
	return d.de.Seed(dm)
}

// Evaluate scores the open Move proposal described by dl (already applied
// to the seeded mapping) and reports it to Metrics as one evaluation. Commit or Reject must follow before the next proposal. The
// returned Cost's per-level slices alias the session scratch.
//
//ruby:hotpath
func (d *Delta) Evaluate(dl mapping.Delta) nest.Cost {
	c := d.e.ev.Plan().EvaluateDelta(d.de, dl)
	d.e.metrics.Evaluation(c.Valid)
	return c
}

// NewBreakdown allocates a cost-attribution buffer sized for the engine's
// plan, for use with Attribute.
func (d *Delta) NewBreakdown() *nest.Breakdown {
	return d.e.ev.Plan().NewBreakdown()
}

// Attribute fills b with the cost attribution of the session's committed
// state (see nest.Plan.Attribute). Allocation-free; requires a valid seed
// and no open proposal.
//
//ruby:hotpath
func (d *Delta) Attribute(b *nest.Breakdown) { d.de.Attribute(b) }

// Commit keeps the open proposal (the caller leaves the Move applied).
//
//ruby:hotpath
func (d *Delta) Commit() { d.de.Commit() }

// Reject discards the open proposal (the caller must also Undo the Move).
//
//ruby:hotpath
func (d *Delta) Reject() { d.de.Reject() }
