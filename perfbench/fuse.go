package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/search"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// fuseEvals is the per-layer and per-segment evaluation budget of the
// network searches, and fuseVariants the number of search seeds the units
// cycle through: a fused network EDP swings by tens of percent with the
// seed, so the quality metric needs several.
const (
	fuseEvals    = 4000
	fuseVariants = 4
)

// fuseArrays are the Eyeriss-like arrays the networks are searched on: the
// paper's 14x12 baseline plus a smaller and a larger array of the Fig. 13
// sweep, so the quality metric averages over more than two answers.
var fuseArrays = []sweep.ArrayConfig{{Cols: 14, Rows: 12}, {Cols: 8, Rows: 8}, {Cols: 16, Rows: 16}}

// fuse is the fusion-aware network search: sweep.SearchNetwork with fusion
// on over ResNet-50 and the DeepBench stacks, under Ruby-S with the
// row-stationary constraints rubysuite -fuse uses. It is the only workload
// that runs nest.FusedEvaluator and the segment search.
type fuse struct {
	seed  int64
	tiny  bool
	evals int64

	nets     []*workload.Network
	archs    []*arch.Arch
	counters *engine.Counters
	tm       *traceMetrics

	log seedLog[[]*sweep.NetworkResult]
}

func newFuse(seed int64, tiny bool) *fuse {
	return &fuse{seed: seed, tiny: tiny, evals: fuseEvals}
}

var rubyS = sweep.Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}

func (b *fuse) setup(ctx context.Context) error {
	b.nets = []*workload.Network{workloads.ResNet50Network(), workloads.DeepBenchStacks()}
	arrays := fuseArrays
	if b.tiny {
		b.nets = b.nets[1:]
		arrays = arrays[:1]
		b.evals = 200
	}
	b.archs = b.archs[:0]
	for _, c := range arrays {
		b.archs = append(b.archs, arch.EyerissLike(c.Cols, c.Rows, 128))
	}
	b.counters, b.tm = &engine.Counters{}, &traceMetrics{}
	b.log = newSeedLog[[]*sweep.NetworkResult](fuseVariants)
	// Warm-up: the smaller network on the first array.
	_, err := sweep.SearchNetwork(ctx, b.nets[len(b.nets)-1], b.archs[0], rubyS,
		mapspace.EyerissRowStationary, b.suiteOptions(engine.Config{}, warmupSeed), true)
	return err
}

func (b *fuse) variants() int { return fuseVariants }

func (b *fuse) suiteOptions(ecfg engine.Config, seed int64) sweep.SuiteOptions {
	return sweep.SuiteOptions{
		Search:   search.Options{Seed: seed, Threads: 1, MaxEvaluations: b.evals},
		Engine:   ecfg,
		Parallel: nproc(),
	}
}

func (b *fuse) unit(ctx context.Context, traced bool, rep int) (unitOut, error) {
	ecfg := engine.Config{Metrics: b.counters}
	before := countersOf(b.counters).evals
	if traced {
		ecfg = engine.Config{Metrics: b.tm, LatencySampleEvery: 1}
		before = b.tm.counts().evals
	}
	v := rep % fuseVariants
	var out unitOut
	var results []*sweep.NetworkResult
	// One operation answers the fusion question for one array: every
	// network searched on it.
	for _, a := range b.archs {
		start := time.Now()
		for _, net := range b.nets {
			so := b.suiteOptions(ecfg, pointSeed(b.seed*fuseVariants+int64(v), a.Name, net.Name))
			nr, err := sweep.SearchNetwork(ctx, net, a, rubyS, mapspace.EyerissRowStationary, so, true)
			if err != nil {
				return out, fmt.Errorf("%s on %s: %w", net.Name, a.Name, err)
			}
			out.edps = append(out.edps, nr.EDP)
			out.kept += len(nr.Segments)
			out.tried += len(net.Edges)
			results = append(results, nr)
		}
		out.ops = append(out.ops, time.Since(start).Seconds())
	}
	if traced {
		out.evals = b.tm.counts().evals - before
	} else {
		out.evals = countersOf(b.counters).evals - before
	}
	out.settle = func() {
		h := sha256.New()
		for _, nr := range results {
			fmt.Fprintf(h, "network %s %x\n", nr.Network.Name, math.Float64bits(nr.EDP))
			digestSuite(h, nr.Baseline)
			for _, sr := range nr.Segments {
				fmt.Fprintf(h, "segment %s->%s %x %x\n", sr.From, sr.To, math.Float64bits(sr.Fused.EDP), sr.Evaluated)
				enc, _ := json.Marshal([]any{sr.Producer, sr.Consumer}) // an unencodable pair digests as empty
				h.Write(enc)
			}
		}
		b.log.record(v, results, fmt.Sprintf("%x", h.Sum(nil)))
	}
	return out, nil
}

func (b *fuse) verify() checkResult {
	var c checkResult
	perUnit := int64(0)
	for _, results := range b.log.first {
		if results == nil {
			continue
		}
		perUnit = 0
		for _, nr := range results {
			perUnit += int64(len(nr.Baseline.Layers) + len(nr.Network.Edges))
			for _, lr := range nr.Baseline.Layers {
				checkSearchedLayer(&c, nr.Baseline, lr, true, b.evals)
			}
			checkNetwork(&c, nr)
		}
	}
	c.attempted = perUnit * b.log.checkDigests(&c)
	return c
}

// checkNetwork checks a fused network result: every kept segment's cost
// must match a fresh fused evaluation bit for bit, and the fused network
// EDP must not exceed the per-layer baseline's.
func checkNetwork(c *checkResult, nr *sweep.NetworkResult) {
	for _, sr := range nr.Segments {
		where := fmt.Sprintf("segment %s->%s on %s", sr.From, sr.To, nr.Arch.Name)
		bind, err := nr.Network.Bind(sr.EdgeIndex)
		if err != nil {
			c.fail("%s: %v", where, err)
			continue
		}
		fe, err := nest.NewFusedEvaluator(bind, nr.Arch, sweep.FuseLevel)
		if err != nil {
			c.fail("%s: %v", where, err)
			continue
		}
		if fc := fe.Evaluate(sr.Producer, sr.Consumer); !sameCost(fc, sr.Fused) {
			c.fail("%s: reported fused EDP %v, fresh evaluation %v", where, sr.Fused.EDP, fc.EDP)
		}
	}
	if nr.EDP > nr.Baseline.EDP {
		c.fail("network %s on %s: fused EDP %v exceeds the per-layer baseline %v",
			nr.Network.Name, nr.Arch.Name, nr.EDP, nr.Baseline.EDP)
	}
}

func (b *fuse) engineCounts() engineCounts { return b.tm.counts() }

// probePoints returns every kept segment of the first unit on the first
// array (its producer, with the fused pair attached) plus each segment's
// consumer layer.
func (b *fuse) probePoints() []probePoint {
	var pts []probePoint
	for _, nr := range b.log.first[0] {
		if nr.Arch != b.archs[0] {
			continue
		}
		for _, sr := range nr.Segments {
			bind, err := nr.Network.Bind(sr.EdgeIndex)
			if err != nil {
				continue
			}
			prod := probePoint{
				name: sr.From, work: bind.Prod.Work, arch: nr.Arch, kind: rubyS.Kind,
				cons: mapspace.EyerissRowStationary(bind.Prod.Work), best: sr.Producer,
			}
			prod.fused = &fusedPair{bind: bind, prod: sr.Producer, cons: sr.Consumer}
			cons := probePoint{
				name: sr.To, work: bind.Cons.Work, arch: nr.Arch, kind: rubyS.Kind,
				cons: mapspace.EyerissRowStationary(bind.Cons.Work), best: sr.Consumer,
			}
			pts = append(pts, prod, cons)
		}
	}
	return pts
}

func (b *fuse) close() {}
