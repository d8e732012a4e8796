package ruby_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ruby"
)

// The Section II-D toy problem: a perfect-factorization mapper strands one
// of six PEs on a 100-element tensor; Ruby-S saturates the array with a
// remainder tile.
func ExampleSearchExhaustive() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	ev := ruby.MustEvaluator(w, a)

	pfm := ruby.SearchExhaustive(context.Background(), ruby.NewSpace(w, a, ruby.PFM, ruby.Constraints{FixedPerms: true}), ruby.NewEngine(ev), ruby.SearchOptions{}, 0)
	rs := ruby.SearchExhaustive(context.Background(), ruby.NewSpace(w, a, ruby.RubyS, ruby.Constraints{FixedPerms: true}), ruby.NewEngine(ev), ruby.SearchOptions{}, 0)
	fmt.Printf("PFM: %.0f cycles at %.0f%% utilization\n", pfm.BestCost.Cycles, 100*pfm.BestCost.Utilization)
	fmt.Printf("Ruby-S: %.0f cycles at %.0f%% utilization\n", rs.BestCost.Cycles, 100*rs.BestCost.Utilization)
	// Output:
	// PFM: 20 cycles at 83% utilization
	// Ruby-S: 17 cycles at 98% utilization
}

// Evaluating one explicit mapping: the Fig. 5 allocation (17 iterations of
// 6 elements, the last dispatching the remainder of 4).
func ExampleEvaluator_Evaluate() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	ev := ruby.MustEvaluator(w, a)

	m := ruby.UniformMapping(w, a, 1)
	m.Factors["X"] = []int{1, 17, 6}
	c := ev.Evaluate(m)
	fmt.Printf("valid=%v cycles=%.0f DRAM reads=%.0f\n", c.Valid, c.Cycles, c.LevelReads[0])
	// Output:
	// valid=true cycles=17 DRAM reads=100
}

// The constructive heuristic builds a saturating mapping without search.
func ExampleConstructMapping() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	ev := ruby.MustEvaluator(w, a)

	_, cost, err := ruby.ConstructMapping(ev, ruby.RubyS, ruby.Constraints{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("one-shot: %.0f cycles\n", cost.Cycles)
	// Output:
	// one-shot: 17 cycles
}

// Extended-Einsum workloads express projections the convolution builder
// cannot, such as depthwise convolutions.
func ExampleParseEinsum() {
	w, err := ruby.ParseEinsum("depthwise", "O[n,m,p,q] += I[n,m,p+r,q+s] * W[m,r,s]",
		map[string]int{"N": 1, "M": 32, "P": 14, "Q": 14, "R": 3, "S": 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d MACs, reduction dims %v\n", w.MACs(), w.ReductionDims())
	// Output:
	// 56448 MACs, reduction dims [R S]
}

// The execution-driven simulator validates the analytical model.
func ExampleSimulator_Run() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	m := ruby.UniformMapping(w, a, 1)
	m.Factors["X"] = []int{1, 17, 6}

	s, err := ruby.NewSimulator(w, a, ruby.SimOptions{})
	if err != nil {
		panic(err)
	}
	res, err := s.Run(m)
	if err != nil {
		panic(err)
	}
	model := ruby.MustEvaluator(w, a).Evaluate(m)
	fmt.Printf("simulated %.0f cycles, model %.0f cycles\n", res.Cycles, model.Cycles)
	// Output:
	// simulated 17 cycles, model 17 cycles
}

// An engine with a metrics hook counts every evaluation and its verdict,
// and its costs are bit-identical to the bare model's.
func ExampleEngineConfig() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	ev := ruby.MustEvaluator(w, a)

	counters := &ruby.EngineCounters{}
	eng := ruby.EngineConfig{Metrics: counters}.New(ev)

	m := ruby.UniformMapping(w, a, 1)
	m.Factors["X"] = []int{1, 17, 6}
	c := eng.Evaluate(m)
	wide := ruby.UniformMapping(w, a, 1)
	wide.Factors["X"] = []int{1, 1, 100} // 100 lanes on a 6-wide array
	eng.Evaluate(wide)

	s := counters.Snapshot()
	fmt.Printf("cycles=%.0f (bit-identical: %v), evaluations=%d, valid=%d\n",
		c.Cycles, c.EDP == ev.Evaluate(m).EDP, s.Evaluations, s.Valid)
	// Output:
	// cycles=17 (bit-identical: true), evaluations=2, valid=1
}

// Long searches checkpoint and resume: a run killed at any point and
// restored from its snapshot file finishes with bit-identical results.
func ExampleRunCheckpointed() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	ev := ruby.MustEvaluator(w, a)
	sp := ruby.NewSpace(w, a, ruby.RubyS, ruby.Constraints{FixedPerms: true})
	opt := ruby.SearchOptions{Seed: 11, MaxEvaluations: 3000}

	dir, _ := os.MkdirTemp("", "ruby-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "search.json")

	// "First process": step a resumable searcher partway, snapshot, stop.
	s1 := ruby.NewRandomSearcher(sp, ruby.NewEngine(ev), opt)
	for i := 0; i < 3; i++ {
		if _, err := s1.Step(context.Background()); err != nil {
			panic(err)
		}
	}
	st, err := s1.Snapshot()
	if err != nil {
		panic(err)
	}
	if err := ruby.SaveCheckpoint(path, "search", st); err != nil {
		panic(err)
	}

	// "Second process": restore and run to completion.
	s2 := ruby.NewRandomSearcher(sp, ruby.NewEngine(ev), opt)
	if _, err := ruby.RestoreSearch(context.Background(), s2, path); err != nil {
		panic(err)
	}
	res, err := ruby.RunCheckpointed(context.Background(), s2, ruby.CheckpointConfig{Path: path})
	if err != nil {
		panic(err)
	}
	fmt.Printf("best: %.0f cycles after %d evaluations\n", res.BestCost.Cycles, res.Evaluated)
	// Output:
	// best: 17 cycles after 3000 evaluations
}

// Mapping trees visualize imperfect factorization the way the paper's
// Figs. 4-6 do.
func ExampleMapping_RenderTree() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	m := ruby.UniformMapping(w, a, 1)
	m.Factors["X"] = []int{1, 17, 6}
	fmt.Print(m.RenderTree(w, a, "X"))
	// Output:
	// X = 100
	// `- GLB for x17 -> tile 6 (last 4)
	//    |- 16x full branch:
	//    |  `- GLB parFor x6 -> tile 1
	//    `- rem branch (4):
	//       `- GLB parFor x4 -> tile 1
}

// Sharding one exhaustive search into a deterministic plan: each shard owns
// a contiguous range of leading-dimension factor chains, and running the
// shards in any order — locally or across a worker fleet — merges to the
// same incumbent a single-node scan finds.
func ExampleBuildShardPlan() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	sp := ruby.NewSpace(w, a, ruby.RubyS, ruby.Constraints{FixedPerms: true})

	plan, err := ruby.BuildShardPlan(sp, "exhaustive", 1, 3, 0)
	if err != nil {
		panic(err)
	}
	for _, sh := range plan.Shards {
		fmt.Printf("shard %d: chains [%d, %d)\n", sh.Index, sh.Chain.Lo, sh.Chain.Hi)
	}

	spec := &ruby.DistSpec{
		Workload: []byte(`{"name": "d100", "type": "vector1d", "d": 100}`),
		Arch:     []byte(`{"name": "toy", "levels": [{"name": "DRAM"}, {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}]}`),
		Search:   "exhaustive",
	}
	cons := `{"fixed_perms": true}`
	spec.Constraints = []byte(cons)
	merged, err := ruby.RunPlanLocal(context.Background(), spec, plan)
	if err != nil {
		panic(err)
	}
	fmt.Printf("merged: %d evaluated, winner from shard %d\n", merged.Evaluated, merged.BestShard)
	// Output:
	// shard 0: chains [0, 10)
	// shard 1: chains [10, 20)
	// shard 2: chains [20, 30)
	// merged: 30 evaluated, winner from shard 2
}

// Resuming a coordinated run: the coordinator's state file keeps finished
// shards' results, so a restored run re-queues only the unfinished work and
// still merges to the identical outcome.
func ExampleRestoreCoordinator() {
	w := ruby.MustVector1D("d100", 100)
	a := ruby.ToyGLB(6, 512)
	sp := ruby.NewSpace(w, a, ruby.RubyS, ruby.Constraints{FixedPerms: true})
	plan, err := ruby.BuildShardPlan(sp, "exhaustive", 1, 2, 0)
	if err != nil {
		panic(err)
	}

	dir, _ := os.MkdirTemp("", "ruby-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "coord.json")

	// "First process": shard 0 completes, then the run is interrupted.
	c1 := ruby.NewCoordinator(plan, 0, nil)
	c1.Lease("w1")
	c1.Complete(0, "w1", ruby.ShardOutcome{Evaluated: 18, Valid: 12})
	if err := c1.SaveState(path, nil); err != nil {
		panic(err)
	}

	// "Second process": restore; only the unfinished shard is pending.
	st, err := ruby.LoadCoordinatorState(path)
	if err != nil {
		panic(err)
	}
	c2, err := ruby.RestoreCoordinator(st, 0, nil)
	if err != nil {
		panic(err)
	}
	for _, sv := range c2.Shards() {
		fmt.Printf("shard %d: %s\n", sv.Shard.Index, sv.Status)
	}
	sh, _, _ := c2.Lease("w2")
	c2.Complete(sh.Index, "w2", ruby.ShardOutcome{Evaluated: 18, Valid: 11})
	fmt.Printf("done=%v evaluated=%d\n", c2.Done(), c2.Merged().Evaluated)
	// Output:
	// shard 0: done
	// shard 1: pending
	// done=true evaluated=36
}
