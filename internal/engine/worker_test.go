package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workloads"
)

// TestWorkerMatchesEngine pins Worker.Evaluate to Engine.Evaluate.
func TestWorkerMatchesEngine(t *testing.T) {
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))

	wk := New(ev).NewWorker()
	ref := New(ev)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		m := sp.Sample(rng)
		got := wk.Evaluate(m)
		want := ref.Evaluate(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mapping %d: worker %+v\nengine %+v", i, got, want)
		}
	}
}

// TestWorkerSharedAliasing demonstrates why EvaluateShared results must be
// cloned before being retained: the next evaluation on the same worker
// rewrites the per-level slices in place.
func TestWorkerSharedAliasing(t *testing.T) {
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	eng := New(ev)
	wk := eng.NewWorker()

	rng := rand.New(rand.NewSource(8))
	var m1, m2 *mapping.Mapping
	for m1 == nil || m2 == nil {
		m := sp.Sample(rng)
		if c := eng.Evaluate(m); c.Valid {
			if m1 == nil {
				m1 = m
			} else if eng.Evaluate(m).EDP != eng.Evaluate(m1).EDP {
				m2 = m
			}
		}
	}

	shared := wk.EvaluateShared(m1)
	kept := shared.Clone()
	if !reflect.DeepEqual(shared, kept) {
		t.Fatal("clone differs from original")
	}
	wk.EvaluateShared(m2)
	if &shared.LevelReads[0] == &kept.LevelReads[0] {
		t.Fatal("Clone did not detach the slices")
	}
	if !reflect.DeepEqual(kept, wk.Evaluate(m1)) {
		t.Fatal("cloned cost changed after later evaluations")
	}
}

// TestWorkerConcurrent runs many workers over one engine — meaningful under
// -race.
func TestWorkerConcurrent(t *testing.T) {
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	eng := New(ev)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			wk := eng.NewWorker()
			smp := sp.NewSampler()
			m := &mapping.Mapping{}
			for i := 0; i < 200; i++ {
				smp.SampleInto(rng, m)
				c := wk.EvaluateShared(m)
				if c.Valid && c.EDP <= 0 {
					t.Errorf("valid cost with nonpositive EDP")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
