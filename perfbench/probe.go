package main

import (
	"math/rand"
	"runtime"
	"time"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/sweep"
	"ruby/internal/workload"
)

// probePoint is one of a workload's own search points: the problem, its
// mapspace, and a valid mapping found for it, which seeds the delta probe.
type probePoint struct {
	name  string
	work  *workload.Workload
	arch  *arch.Arch
	kind  mapspace.Kind
	cons  mapspace.Constraints
	best  *mapping.Mapping
	fused *fusedPair // set when the point is the producer of a kept segment
}

// fusedPair is a kept fused segment: the edge and its winning mappings.
type fusedPair struct {
	bind       workload.EdgeBinding
	prod, cons *mapping.Mapping
}

// probeResult holds the per-call cost of each layer's entry point.
type probeResult struct {
	compileUS, spaceUS, samplerUS float64 // nest.NewEvaluator, mapspace.New, Space.NewSampler
	samplerBytes                  float64 // bytes one NewSampler allocates
	sampleNS                      float64 // Sampler.SampleInto without its lowering
	denseNS                       float64 // Mapping.Dense
	evalNS                        float64 // Plan.EvaluateInto
	moveNS                        float64 // Mutator.Propose + Move.Apply + Move.Undo
	deltaNS                       float64 // Plan.EvaluateDelta
	fusedNS                       float64 // FusedEvaluator.Evaluate; 0 without fused points
}

const (
	probeBuilds = 20   // constructions timed per point
	probeCalls  = 2000 // hot-path calls timed per point
)

// probe times each layer's entry points on the given points, one call at
// a time, and averages over all points.
func probe(pts []probePoint, seed int64) probeResult {
	var r probeResult
	var compile, space, sampler, sample, dense, eval, move, delta, fused time.Duration
	var nBuild, nCall, nDelta, nFused int
	var bytes uint64
	rng := rand.New(rand.NewSource(seed))
	for _, p := range pts {
		var ev *nest.Evaluator
		var err error
		for i := 0; i < probeBuilds; i++ {
			start := time.Now()
			ev, err = nest.NewEvaluator(p.work, p.arch)
			compile += time.Since(start)
		}
		if err != nil {
			continue
		}
		var sp *mapspace.Space
		for i := 0; i < probeBuilds; i++ {
			start := time.Now()
			sp = mapspace.New(p.work, p.arch, p.kind, p.cons)
			space += time.Since(start)
		}
		var smp *mapspace.Sampler
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < probeBuilds; i++ {
			start := time.Now()
			smp = sp.NewSampler()
			sampler += time.Since(start)
		}
		runtime.ReadMemStats(&ms1)
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		nBuild += probeBuilds

		plan, scratch, slots := ev.Plan(), ev.Plan().NewScratch(), sp.Slots()
		m := &mapping.Mapping{}
		for i := 0; i < probeCalls; i++ {
			t0 := time.Now()
			smp.SampleInto(rng, m)
			t1 := time.Now()
			m.Invalidate()
			dm, err := m.Dense(p.work, p.arch, slots)
			t2 := time.Now()
			if err == nil {
				plan.EvaluateInto(dm, scratch)
			}
			t3 := time.Now()
			sample += t1.Sub(t0)
			dense += t2.Sub(t1)
			eval += t3.Sub(t2)
		}
		nCall += probeCalls

		if p.best != nil {
			bm := p.best.Clone()
			if dm, err := bm.Dense(p.work, p.arch, slots); err == nil {
				de := plan.NewDeltaEval()
				de.Seed(dm)
				mu := sp.NewMutator()
				for i := 0; i < probeCalls; i++ {
					t0 := time.Now()
					mv := mu.Propose(rng)
					mv.Apply(bm)
					t1 := time.Now()
					plan.EvaluateDelta(de, mv.Delta())
					t2 := time.Now()
					de.Reject()
					mv.Undo(bm)
					t3 := time.Now()
					move += t1.Sub(t0) + t3.Sub(t2)
					delta += t2.Sub(t1)
				}
				nDelta += probeCalls
			}
		}
		if p.fused != nil {
			if fe, err := nest.NewFusedEvaluator(p.fused.bind, p.arch, sweep.FuseLevel); err == nil {
				start := time.Now()
				for i := 0; i < probeCalls; i++ {
					fe.Evaluate(p.fused.prod, p.fused.cons)
				}
				fused += time.Since(start)
				nFused += probeCalls
			}
		}
	}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(unit)
	}
	r.compileUS = per(compile, nBuild, time.Microsecond)
	r.spaceUS = per(space, nBuild, time.Microsecond)
	r.samplerUS = per(sampler, nBuild, time.Microsecond)
	if nBuild > 0 {
		r.samplerBytes = float64(bytes) / float64(nBuild)
	}
	// SampleInto lowers its draw itself; the separately timed lowering is
	// taken out so the two layers do not overlap.
	r.sampleNS = per(sample-dense, nCall, time.Nanosecond)
	r.denseNS = per(dense, nCall, time.Nanosecond)
	r.evalNS = per(eval, nCall, time.Nanosecond)
	r.moveNS = per(move, nDelta, time.Nanosecond)
	r.deltaNS = per(delta, nDelta, time.Nanosecond)
	r.fusedNS = per(fused, nFused, time.Nanosecond)
	return r
}
