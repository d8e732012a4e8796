package engine

import (
	"context"
	"strings"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

func guardFixture(t *testing.T, cfg Config) (*Engine, *mapping.Mapping) {
	t.Helper()
	w := workload.MustVector1D("toy", 100)
	a := arch.ToyGLB(6, 512)
	sp := mapspace.New(w, a, mapspace.PFM, mapspace.Constraints{FixedPerms: true})
	eng := cfg.New(nest.MustEvaluator(w, a))
	m := sp.NewEnumerator().Next()
	if m == nil {
		t.Fatal("empty mapspace")
	}
	return eng, m
}

func TestPersistentPanicDegradesToInvalidCost(t *testing.T) {
	met := &Counters{}
	eng, m := guardFixture(t, Config{Metrics: met})
	calls := 0
	eng.evalHook = func(*mapping.Mapping) nest.Cost {
		calls++
		panic("model bug")
	}
	c := eng.Evaluate(m)
	if c.Valid {
		t.Fatal("panicking evaluation reported valid")
	}
	if !Panicked(&c) {
		t.Errorf("Reason %q not recognized by Panicked", c.Reason)
	}
	if !strings.Contains(c.Reason, "model bug") {
		t.Errorf("Reason %q does not carry the panic value", c.Reason)
	}
	if want := panicRetries + 1; calls != want {
		t.Errorf("model called %d times, want %d (initial + retries)", calls, want)
	}
	if got := met.Snapshot().Panics; got != int64(panicRetries+1) {
		t.Errorf("panics counter = %d, want %d", got, panicRetries+1)
	}
	// The degraded cost still counts as an (invalid) evaluation.
	if s := met.Snapshot(); s.Evaluations != 1 || s.Valid != 0 {
		t.Errorf("evaluation counters = %+v", s)
	}
}

func TestTransientPanicRecoversWithRetry(t *testing.T) {
	met := &Counters{}
	eng, m := guardFixture(t, Config{Metrics: met})
	ev := eng.Evaluator()
	calls := 0
	eng.evalHook = func(mm *mapping.Mapping) nest.Cost {
		calls++
		if calls == 1 {
			panic("transient")
		}
		return ev.Evaluate(mm)
	}
	c := eng.Evaluate(m)
	if !c.Valid {
		t.Fatalf("retry did not recover: %q", c.Reason)
	}
	want := ev.Evaluate(m)
	if c.EDP != want.EDP || c.Cycles != want.Cycles {
		t.Errorf("recovered cost %+v, want %+v", c, want)
	}
	if got := met.Snapshot().Panics; got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// A panic on the worker path must rebuild the scratch: subsequent
// evaluations on the same worker keep producing correct results.
func TestWorkerSurvivesPanicAndKeepsEvaluating(t *testing.T) {
	eng, m := guardFixture(t, Config{})
	ev := eng.Evaluator()
	want := ev.Evaluate(m)

	wk := eng.NewWorker()
	calls := 0
	eng.evalHook = func(mm *mapping.Mapping) nest.Cost {
		calls++
		if calls == 1 {
			panic("scratch corrupted")
		}
		return ev.Evaluate(mm)
	}
	if c := wk.Evaluate(m); !c.Valid {
		t.Fatalf("worker did not recover: %q", c.Reason)
	}
	// Drop the hook: the rebuilt scratch must evaluate correctly.
	eng.evalHook = nil
	c := wk.Evaluate(m)
	if !c.Valid || c.EDP != want.EDP {
		t.Errorf("post-panic worker cost %+v, want %+v", c, want)
	}
}

// One poisoned mapping must not take down a batch: the other slots evaluate
// normally and the batch completes.
func TestBatchIsolatesPanickingMapping(t *testing.T) {
	w := workload.MustVector1D("toy", 100)
	a := arch.ToyGLB(6, 512)
	sp := mapspace.New(w, a, mapspace.PFM, mapspace.Constraints{FixedPerms: true})
	met := &Counters{}
	eng := Config{Workers: 4, Metrics: met}.New(nest.MustEvaluator(w, a))

	var ms []*mapping.Mapping
	en := sp.NewEnumerator()
	for m := en.Next(); m != nil && len(ms) < 8; m = en.Next() {
		ms = append(ms, m)
	}
	if len(ms) < 2 {
		t.Fatal("need at least two mappings")
	}
	poisoned := ms[0]
	ev := eng.Evaluator()
	eng.evalHook = func(m *mapping.Mapping) nest.Cost {
		if m == poisoned {
			panic("poisoned mapping")
		}
		return ev.Evaluate(m)
	}
	out := eng.EvaluateBatch(context.Background(), ms)
	if !Panicked(&out[0]) {
		t.Errorf("poisoned slot: %+v", out[0])
	}
	for i := 1; i < len(out); i++ {
		if Panicked(&out[i]) || Cancelled(&out[i]) {
			t.Errorf("slot %d affected by slot 0's panic: %+v", i, out[i])
		}
	}
	if got := met.Snapshot().Panics; got != int64(panicRetries+1) {
		t.Errorf("panics counter = %d, want %d", got, panicRetries+1)
	}
}
