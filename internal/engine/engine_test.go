package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

func toy() (*mapspace.Space, *nest.Evaluator) {
	w := workload.MustVector1D("toy", 100)
	a := arch.ToyGLB(6, 512)
	return mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true}),
		nest.MustEvaluator(w, a)
}

// samples draws n mappings (with duplicates, by design of the small space).
func samples(sp *mapspace.Space, n int, seed int64) []*mapping.Mapping {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]*mapping.Mapping, n)
	for i := range ms {
		ms[i] = sp.Sample(rng)
	}
	return ms
}

func TestPassThroughMatchesEvaluator(t *testing.T) {
	sp, ev := toy()
	eng := New(ev)
	for _, m := range samples(sp, 50, 1) {
		got := eng.Evaluate(m)
		want := ev.Evaluate(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass-through cost differs: got %+v want %+v", got, want)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	sp, ev := toy()
	met := &Counters{}
	eng := Config{Metrics: met}.New(ev)
	valid := 0
	for _, m := range samples(sp, 30, 3) {
		if eng.Evaluate(m).Valid {
			valid++
		}
	}
	s := met.Snapshot()
	if s.Evaluations != 30 || s.Valid != int64(valid) {
		t.Errorf("evaluations = %d, valid = %d, want 30 and %d", s.Evaluations, s.Valid, valid)
	}
	if want := float64(valid) / 30; s.ValidRate != want {
		t.Errorf("valid rate = %f, want %f", s.ValidRate, want)
	}
}

// TestEvaluateConcurrentCounts evaluates from many goroutines at once: no
// evaluation may be lost from the counters (meaningful under -race).
func TestEvaluateConcurrentCounts(t *testing.T) {
	sp, ev := toy()
	met := &Counters{}
	eng := Config{Metrics: met}.New(ev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, m := range samples(sp, 500, seed) {
				c := eng.Evaluate(m)
				if c.Valid && c.EDP <= 0 {
					t.Errorf("valid mapping with nonpositive EDP: %+v", c)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := met.Snapshot().Evaluations; got != 8*500 {
		t.Errorf("evaluations = %d, want %d", got, 8*500)
	}
}

func TestEvaluateBatchMatchesSerial(t *testing.T) {
	sp, ev := toy()
	ms := samples(sp, 300, 4)
	serial := New(ev)
	parallel := Config{Workers: 8}.New(ev)
	got := parallel.EvaluateBatch(context.Background(), ms)
	for i, m := range ms {
		want := serial.Evaluate(m)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestEvaluateBatchCancelled(t *testing.T) {
	sp, ev := toy()
	ms := samples(sp, 100, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Config{Workers: 4}.New(ev).EvaluateBatch(ctx, ms)
	if len(out) != len(ms) {
		t.Fatalf("batch length %d, want %d", len(out), len(ms))
	}
	for i := range out {
		if !Cancelled(&out[i]) {
			t.Fatalf("slot %d evaluated despite cancelled context: %+v", i, out[i])
		}
	}
}
