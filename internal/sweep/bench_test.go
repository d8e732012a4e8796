package sweep

import (
	"context"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// BenchmarkSegmentSearch measures one fusion-aware segment search: the
// ResNet-50 res2 bottleneck entry edge (the 1x1 reduce feeding the 3x3) on
// the 14x12 Eyeriss-like array under Ruby-S with row-stationary
// constraints, at a fixed budget and seed, against per-layer baselines
// searched once up front. Its allocations are deterministic, so `make
// bench-gate` holds allocs/op flat.
func BenchmarkSegmentSearch(b *testing.B) {
	b.ReportAllocs()
	net := workloads.ResNet50Network()
	bind, err := net.Bind(0) // res2a_branch2a -> res2x_branch2b
	if err != nil {
		b.Fatal(err)
	}
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 1, Threads: 1, MaxEvaluations: 2000}}
	var base [2]LayerResult
	for i, nd := range []*workload.Node{bind.Prod, bind.Cons} {
		l := workloads.Layer{Name: nd.Name, Work: nd.Work, Repeat: 1}
		if base[i], err = SearchLayer(context.Background(), l, a, st, mapspace.EyerissRowStationary,
			so.Search, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	var evaluated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, _, err := searchSegment(context.Background(), bind, a, st, mapspace.EyerissRowStationary,
			so, base[0], base[1])
		if err != nil {
			b.Fatal(err)
		}
		evaluated = sr.Evaluated
	}
	b.ReportMetric(float64(evaluated), "evals")
}
