package search

import (
	"context"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// guidedPin is one (architecture, layer, seed) case whose mapspace is small
// enough to enumerate exhaustively, used as ground truth for the guided
// searcher. The three archetypes stress different couplings: the Eyeriss row
// stationary array, the TPU-style systolic array whose fanout the optimum
// splits between two dims, and the two-tier Eyeriss v2 cluster hierarchy.
type guidedPin struct {
	name string
	w    *workload.Workload
	a    *arch.Arch
	seed int64
}

func guidedPins() []guidedPin {
	return []guidedPin{
		{"eyeriss/mm-8-12-18", workload.MustMatmul("mm", 8, 12, 18), arch.EyerissLike(14, 12, 128), 1},
		{"tpu/mm-8-24-10", workload.MustMatmul("mm", 8, 24, 10), arch.TPULike(8, 8, 256), 1},
		{"eyerissv2/mm-8-24-10", workload.MustMatmul("mm", 8, 24, 10), arch.EyerissV2Like(4, 4, 64), 3},
	}
}

// TestGuidedMatchesExhaustive asserts that on every pinned mapspace small
// enough for exhaustive enumeration the guided searcher reaches the exact
// exhaustive optimum, and does so within 1% of the exhaustive evaluation
// count (the issue's convergence budget).
func TestGuidedMatchesExhaustive(t *testing.T) {
	for _, tc := range guidedPins() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
			ev := nest.MustEvaluator(tc.w, tc.a)
			ex := Exhaustive(context.Background(), sp, engine.Config{Workers: 4}.New(ev), Options{}, 0)
			if ex.Best == nil {
				t.Fatal("exhaustive found no valid mapping")
			}
			g := Guided(context.Background(), sp, engine.New(ev), Options{Seed: tc.seed})
			if g.Best == nil {
				t.Fatal("guided found no valid mapping")
			}
			exV := ObjectiveEDP.Value(&ex.BestCost)
			gV := ObjectiveEDP.Value(&g.BestCost)
			if gV != exV {
				t.Errorf("guided EDP %v != exhaustive optimum %v (gap %.4g%%)", gV, exV, 100*(gV-exV)/exV)
			}
			if g.Evaluated*100 > ex.Evaluated {
				t.Errorf("guided spent %d evaluations, over 1%% of exhaustive's %d", g.Evaluated, ex.Evaluated)
			}
		})
	}
}

// TestGuidedBeatsStochasticAtBudget asserts the guided searcher matches or
// beats every stochastic searcher's EDP when all are capped at the same
// 10k-evaluation budget.
func TestGuidedBeatsStochasticAtBudget(t *testing.T) {
	const budget = 10000
	w := workload.MustMatmul("mm", 8, 12, 18)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)

	g := Guided(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget})
	if g.Best == nil {
		t.Fatal("guided found no valid mapping")
	}
	gV := ObjectiveEDP.Value(&g.BestCost)

	rivals := map[string]*Result{
		"random": Random(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget}),
		"hillclimb": HillClimb(context.Background(), sp, engine.New(ev),
			Options{Seed: 1, MaxEvaluations: budget, Warmup: 1000, Patience: 2000}),
		"anneal":  Anneal(sp, ev, AnnealOptions{Seed: 1, Steps: budget - 200, Warmup: 200}),
		"genetic": Genetic(sp, ev, GeneticOptions{Seed: 1, Population: 64, Generations: budget / 64}),
	}
	for name, r := range rivals {
		if r.Best == nil {
			continue
		}
		if v := ObjectiveEDP.Value(&r.BestCost); v < gV {
			t.Errorf("%s EDP %v beats guided %v at a %d-eval budget", name, v, gV, budget)
		}
	}
}

// TestGuidedInnerLoopAllocFree pins the zero-allocation contract of the
// guided scan's candidate evaluation (the hot path: propose, delta-evaluate,
// roll back). The sweep-level scratch is preallocated at construction; a
// regression here shows up as allocations per candidate.
func TestGuidedInnerLoopAllocFree(t *testing.T) {
	w := workload.MustMatmul("mm", 8, 12, 18)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)
	eng := engine.New(ev)
	s := NewGuided(sp, eng, Options{Seed: 1, MaxEvaluations: 100000})

	// Drive the searcher into the sweep phase with a seeded delta session.
	for s.phase != guidedPhaseSweep {
		if done, err := s.Step(context.Background()); done || err != nil {
			t.Fatalf("searcher ended before reaching the sweep phase (done=%v err=%v)", done, err)
		}
	}
	if s.cur == nil {
		s.cur = s.res.Best.Clone()
		if c := s.dw.Seed(s.cur); !c.Valid {
			t.Fatal("working mapping does not validate")
		}
	}

	met := eng.Metrics()
	n := len(s.exactChains[0]) / s.nslots
	if n < 2 || len(s.exactChains[0]) != n*s.nslots {
		t.Fatalf("expected a precomputed flat chain list for dim 0, got %d entries for %d slots",
			len(s.exactChains[0]), s.nslots)
	}
	// best=0 keeps every candidate non-improving (EDP is positive), so the
	// measured path is propose + delta-evaluate + reject + undo only.
	best := 0.0
	ci := 0
	allocs := testing.AllocsPerRun(200, func() {
		if sameChain(s.exactChain(0, ci), s.cur.Factors[s.dimNames[0]]) {
			ci = (ci + 1) % n
		}
		var pre checkpoint.RNG
		mv := s.mut.ProposeChainSet(0, s.exactChain(0, ci))
		s.tryCandidate(mv, guidedKindChainExact, 0, ci, pre, &best, met)
		ci = (ci + 1) % n
	})
	if allocs != 0 {
		t.Errorf("guided candidate evaluation allocates %v times per op; want 0", allocs)
	}
}

// stalledGuided drives a guided search on sp into the sweep phase with a
// seeded working mapping, then stalls it: the incumbent's and the working
// mapping's objective values are set to 0, which no candidate (EDP is
// positive) beats, so nothing is cloned into the incumbent or committed and
// the measured path is build + price + restore only.
func stalledGuided(t *testing.T, sp *mapspace.Space) (*GuidedSearcher, engine.Metrics) {
	t.Helper()
	eng := engine.New(nest.MustEvaluator(sp.Work, sp.Arch))
	s := NewGuided(sp, eng, Options{Seed: 1, MaxEvaluations: 1 << 40})
	for s.phase != guidedPhaseSweep {
		if done, err := s.Step(context.Background()); done || err != nil {
			t.Fatalf("searcher ended before reaching the sweep phase (done=%v err=%v)", done, err)
		}
	}
	s.cur = s.res.Best.Clone()
	if c := s.dw.Seed(s.cur); !c.Valid {
		t.Fatal("working mapping does not validate")
	}
	s.sweepReady = true
	s.curVal = 0
	s.res.BestCost = nest.Cost{Valid: true}
	return s, eng.Metrics()
}

// TestGuidedSeedsAllocFree pins the constructive seed pass as
// allocation-free: every spatially-saturating seed is rebuilt in the
// searcher's one seed mapping, relowered into its recycled dense storage
// and priced on the worker's scratch.
func TestGuidedSeedsAllocFree(t *testing.T) {
	for _, tc := range guidedPins() {
		sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
		s, met := stalledGuided(t, sp)
		before := s.res.Evaluated
		allocs := testing.AllocsPerRun(20, func() { s.spatialSeeds(met) })
		if s.res.Evaluated == before {
			t.Fatalf("%s: the seed pass evaluated nothing", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: the spatial seed pass allocates %v times per run; want 0", tc.name, allocs)
		}
	}
}

// TestGuidedRescueAllocFree pins the spatial rescue as allocation-free:
// candidates patch the working mapping's chains and dense rows in place, are
// priced on the worker's scratch and restored. It also checks the restore:
// after a rescue that finds no winner the working mapping, its key and its
// memoized lowering equal what they were.
func TestGuidedRescueAllocFree(t *testing.T) {
	for _, tc := range guidedPins() {
		sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
		s, met := stalledGuided(t, sp)
		want, err := s.cur.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before := s.res.Evaluated
		var ok, spent bool
		allocs := testing.AllocsPerRun(20, func() {
			ok, spent, err = s.spatialRescue(met)
		})
		if err != nil || ok || spent {
			t.Fatalf("%s: stalled rescue returned ok=%v spent=%v err=%v", tc.name, ok, spent, err)
		}
		if s.res.Evaluated == before {
			t.Fatalf("%s: the rescue priced no candidate", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: the spatial rescue allocates %v times per run; want 0", tc.name, allocs)
		}
		got, err := s.cur.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: the rescue left the working mapping changed:\n%s\nwant\n%s", tc.name, got, want)
		}
		requireGuidedDenseFresh(t, sp, s.cur)
	}
}

// requireGuidedDenseFresh fails unless m's memoized lowering and key equal
// those of a fresh clone.
func requireGuidedDenseFresh(t *testing.T, sp *mapspace.Space, m *mapping.Mapping) {
	t.Helper()
	dn := m.UpdatableDense(sp.Work, sp.Arch, sp.Slots())
	if dn == nil {
		t.Fatal("the working mapping lost its lowering")
	}
	c := m.Clone()
	fresh, err := c.Dense(sp.Work, sp.Arch, sp.Slots())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dn.Cum, fresh.Cum) || !reflect.DeepEqual(dn.Perm, fresh.Perm) ||
		!reflect.DeepEqual(dn.KeepMask, fresh.KeepMask) {
		t.Fatal("the working mapping's lowering diverged from a fresh densify")
	}
	if got, want := m.Key(sp.Work, sp.Slots()), c.Key(sp.Work, sp.Slots()); got != want {
		t.Fatalf("working mapping key %q, fresh clone key %q", got, want)
	}
}

// TestGuidedExactChainLists checks the exact-scan decision and lists on
// every dim of the golden spaces: the capped enumeration counts
// min(ChainCount, cap+1), a dim is scanned exactly iff its chain space is
// at most the cap, and its flat list holds exactly the chains
// Space.EnumerateChains visits, in order.
func TestGuidedExactChainLists(t *testing.T) {
	for _, gs := range guidedSpaces() {
		sp := gs.build()
		s := NewGuided(sp, engine.New(nest.MustEvaluator(sp.Work, sp.Arch)), Options{Seed: 1})
		for di, d := range sp.Work.DimNames() {
			total := sp.ChainCount(d)
			want := total
			if want > guidedExactChainCap+1 {
				want = guidedExactChainCap + 1
			}
			if got := sp.CountChainsUpTo(di, guidedExactChainCap+1); uint64(got) != want {
				t.Errorf("%s dim %s: capped count %d, want min(%d, %d)", gs.name, d, got, total, guidedExactChainCap+1)
			}
			list := s.exactChains[di]
			if (list != nil) != (total <= guidedExactChainCap) {
				t.Errorf("%s dim %s: %d chains, exact list present=%v", gs.name, d, total, list != nil)
				continue
			}
			if list == nil {
				continue
			}
			if len(list) != int(total)*s.nslots || cap(list) != len(list) {
				t.Errorf("%s dim %s: flat list len %d cap %d, want exactly %d", gs.name, d, len(list), cap(list), int(total)*s.nslots)
			}
			ci := 0
			sp.EnumerateChains(d, func(fs []int) bool {
				if !sameChain(s.exactChain(di, ci), fs) {
					t.Errorf("%s dim %s: chain %d = %v, want %v", gs.name, d, ci, s.exactChain(di, ci), fs)
					return false
				}
				ci++
				return true
			})
		}
	}
}
