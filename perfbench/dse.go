package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/search"
	"ruby/internal/sweep"
	"ruby/internal/workloads"
)

// dseEvals is the per-search evaluation budget of the design-space sweep.
const dseEvals = 1000

// dse is the Fig. 13a + 13b design-space sweep: every Eyeriss-like array of
// sweep.EyerissConfigs under every strategy of sweep.Strategies, over the
// ResNet-50 and DeepBench layer lists, through sweep.RunSuiteLayers — the
// path exp.Run("fig13a"/"fig13b") takes. One search thread per layer and
// nproc layers at a time keep every output deterministic.
type dse struct {
	algo  string // search.Run name: "" (random sampling) or "guided"
	seed  int64
	tiny  bool
	evals int64

	suites     []dseSuite
	archs      []*arch.Arch
	strategies []sweep.Strategy
	counters   *engine.Counters
	tm         *traceMetrics

	log seedLog[[]*sweep.SuiteResult]
}

type dseSuite struct {
	name   string
	layers []workloads.Layer
}

func newDSE(algo string, seed int64, tiny bool) *dse {
	return &dse{algo: algo, seed: seed, tiny: tiny, evals: dseEvals}
}

// deepBenchSweep is the DeepBench subselection the Fig. 13b sweep uses: the
// non-vision layers plus two vision anchors, without the largest GEMMs.
func deepBenchSweep() []workloads.Layer {
	var sub []workloads.Layer
	vision := 0
	for _, l := range workloads.DeepBench() {
		if l.Domain == "vision" {
			vision++
			if vision > 2 {
				continue
			}
		}
		if l.Work.MACs() > 3_000_000_000 {
			continue
		}
		sub = append(sub, l)
	}
	return sub
}

func (b *dse) setup(ctx context.Context) error {
	b.suites = []dseSuite{{"resnet50", workloads.ResNet50()}, {"deepbench", deepBenchSweep()}}
	configs := sweep.EyerissConfigs()
	if b.tiny {
		b.suites[0].layers = b.suites[0].layers[:3]
		b.suites[1].layers = b.suites[1].layers[:2]
		configs = []sweep.ArrayConfig{configs[0], configs[6]}
		b.evals = 60
	}
	b.archs = b.archs[:0]
	for _, c := range configs {
		b.archs = append(b.archs, arch.EyerissLike(c.Cols, c.Rows, 128))
	}
	b.strategies = sweep.Strategies()
	b.counters, b.tm = &engine.Counters{}, &traceMetrics{}
	b.log = newSeedLog[[]*sweep.SuiteResult](1)
	// Warm-up: every suite under every strategy on the first array, six
	// suite points, so that set-up takes long enough (about 0.2 s) for its
	// time to be steady from run to run.
	for _, s := range b.suites {
		for _, st := range b.strategies {
			if _, err := sweep.RunSuiteLayers(ctx, s.layers, b.archs[0], st,
				mapspace.EyerissRowStationary, b.suiteOptions(engine.Config{}, warmupSeed)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *dse) variants() int { return 1 }

func (b *dse) suiteOptions(ecfg engine.Config, seed int64) sweep.SuiteOptions {
	return sweep.SuiteOptions{
		Search:   search.Options{Algo: b.algo, Seed: seed, Threads: 1, MaxEvaluations: b.evals},
		Engine:   ecfg,
		Parallel: nproc(),
	}
}

func (b *dse) unit(ctx context.Context, traced bool, _ int) (unitOut, error) {
	ecfg := engine.Config{Metrics: b.counters}
	before := countersOf(b.counters).evals
	if traced {
		ecfg = engine.Config{Metrics: b.tm, LatencySampleEvery: 1}
		before = b.tm.counts().evals
	}
	var out unitOut
	var results []*sweep.SuiteResult
	for _, s := range b.suites {
		for _, a := range b.archs {
			for _, st := range b.strategies {
				so := b.suiteOptions(ecfg, pointSeed(b.seed, s.name, a.Name, st.Name))
				start := time.Now()
				sr, err := sweep.RunSuiteLayers(ctx, s.layers, a, st, mapspace.EyerissRowStationary, so)
				if err != nil {
					return out, fmt.Errorf("%s on %s under %s: %w", s.name, a.Name, st.Name, err)
				}
				out.ops = append(out.ops, time.Since(start).Seconds())
				out.edps = append(out.edps, sr.EDP)
				results = append(results, sr)
			}
		}
	}
	if traced {
		out.evals = b.tm.counts().evals - before
	} else {
		out.evals = countersOf(b.counters).evals - before
	}
	out.settle = func() {
		h := sha256.New()
		for _, sr := range results {
			digestSuite(h, sr)
		}
		b.log.record(0, results, fmt.Sprintf("%x", h.Sum(nil)))
	}
	return out, nil
}

// pointSeed derives the search seed of one point of a run from the run's
// seed. Within a point every layer search shares the seed, as in a sweep;
// across points the seeds are independent, so the points' random draws, and
// with them the sweep's cost and quality, do not all move together.
func pointSeed(seed int64, point ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, strings.Join(point, "|"))
	return int64(h.Sum64() >> 1)
}

// digestSuite hashes a suite result's totals and every layer's winning
// variant, cost and mapping.
func digestSuite(h hash.Hash, sr *sweep.SuiteResult) {
	fmt.Fprintf(h, "suite %s %s %x\n", sr.Arch.Name, sr.Strategy.Name, math.Float64bits(sr.EDP))
	for _, lr := range sr.Layers {
		enc, _ := json.Marshal(lr.Search.Best) // an unencodable mapping digests as empty
		fmt.Fprintf(h, "%s %s %x %x %d %s\n", lr.Layer.Name, lr.Workload.Name,
			math.Float64bits(lr.Cost.EDP), math.Float64bits(lr.Cost.EnergyPJ), lr.Search.Evaluated, enc)
	}
}

func (b *dse) verify() checkResult {
	var c checkResult
	perUnit := int64(0)
	for _, results := range b.log.first {
		if results == nil {
			continue
		}
		perUnit = 0
		for _, sr := range results {
			perUnit += int64(len(sr.Layers))
			for _, lr := range sr.Layers {
				checkSearchedLayer(&c, sr, lr, b.algo == "", b.evals)
			}
		}
	}
	c.attempted = perUnit * b.log.checkDigests(&c)
	return c
}

// checkSearchedLayer checks one layer result of a suite: its cost must match
// a fresh evaluation bit for bit, and a random search must have spent
// exactly its budget.
func checkSearchedLayer(c *checkResult, sr *sweep.SuiteResult, lr sweep.LayerResult, random bool, budget int64) {
	where := fmt.Sprintf("%s on %s under %s", lr.Layer.Name, sr.Arch.Name, sr.Strategy.Name)
	if lr.Search == nil || lr.Search.Best == nil {
		c.fail("%s: no best mapping", where)
		return
	}
	ev, err := nest.NewEvaluator(lr.Workload, sr.Arch)
	if err != nil {
		c.fail("%s: %v", where, err)
		return
	}
	if fresh := ev.Evaluate(lr.Search.Best); !sameCost(fresh, lr.Cost) {
		c.fail("%s: reported EDP %v, fresh evaluation %v", where, lr.Cost.EDP, fresh.EDP)
		return
	}
	if random && lr.Search.Evaluated != budget {
		c.fail("%s: random search spent %d evaluations, budget %d", where, lr.Search.Evaluated, budget)
	}
}

func (b *dse) engineCounts() engineCounts { return b.tm.counts() }

// probePoints picks a few layer results of the first unit, spread over
// suites, arrays and strategies by the seed.
func (b *dse) probePoints() []probePoint {
	rng := rand.New(rand.NewSource(b.seed))
	var pts []probePoint
	first := b.log.first[0]
	for i := 0; i < 6 && len(first) > 0; i++ {
		sr := first[rng.Intn(len(first))]
		lr := sr.Layers[rng.Intn(len(sr.Layers))]
		pts = append(pts, probePoint{
			name: lr.Layer.Name, work: lr.Workload, arch: sr.Arch, kind: sr.Strategy.Kind,
			cons: mapspace.EyerissRowStationary(lr.Workload), best: lr.Search.Best,
		})
	}
	return pts
}

func (b *dse) close() {}
