package sweep

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// networkGolden is the SHA-256 digest of fusion-aware SearchNetwork runs
// over ResNet-50 and the DeepBench stacks on two arrays and two seeds
// (networkDigest). It pins the per-layer baselines, every selected
// segment's mappings and fused cost, every edge's recorded search outcome
// and the network totals, so a change to how segments are searched or
// scheduled that moves any output bit fails here.
const networkGolden = "630e7ea3fe988d883a3e4633c6e20879068db4d5b5601dac4ec835e5bf8d9d14"

// networkDigest runs the golden configuration at the given segment and layer
// parallelism and digests every output bit.
func networkDigest(t *testing.T, parallel int) string {
	t.Helper()
	h := sha256.New()
	for _, net := range []*workload.Network{workloads.ResNet50Network(), workloads.DeepBenchStacks()} {
		for _, cfg := range []ArrayConfig{{14, 12}, {8, 8}} {
			a := arch.EyerissLike(cfg.Cols, cfg.Rows, 128)
			for _, seed := range []int64{1, 2} {
				cp, err := OpenSuiteCheckpoint(filepath.Join(t.TempDir(), "net.suite.json"))
				if err != nil {
					t.Fatal(err)
				}
				so := SuiteOptions{
					Search:     search.Options{Seed: seed, Threads: 1, MaxEvaluations: 300},
					Checkpoint: cp,
					Parallel:   parallel,
				}
				nr, err := SearchNetwork(context.Background(), net, a,
					Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}, mapspace.EyerissRowStationary, so, true)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "network %s %s seed=%d %x %x %x\n", net.Name, a.Name, seed,
					math.Float64bits(nr.EDP), math.Float64bits(nr.TotalEnergyPJ), math.Float64bits(nr.TotalCycles))
				for _, lr := range nr.Baseline.Layers {
					fmt.Fprintf(h, "layer %s %x\n", lr.Layer.Name, math.Float64bits(lr.Cost.EDP))
					digestMapping(t, h, lr.Search.Best)
				}
				for _, sr := range nr.Segments {
					fmt.Fprintf(h, "segment %s->%s %d %x %x\n", sr.From, sr.To, sr.EdgeIndex,
						math.Float64bits(sr.Fused.EDP), sr.Evaluated)
					digestMapping(t, h, sr.Producer)
					digestMapping(t, h, sr.Consumer)
				}
				// Every edge's recorded outcome, fused or not, including
				// candidates the greedy selection dropped.
				keys := make([]string, 0, len(cp.st.Segments))
				for k := range cp.st.Segments {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					ss := cp.st.Segments[k]
					fmt.Fprintf(h, "edge %s %t %d %x\n%s\n%s\n", k, ss.Fused, ss.Evaluated,
						math.Float64bits(ss.EDP), ss.Producer, ss.Consumer)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestMapping(t *testing.T, h hash.Hash, m *mapping.Mapping) {
	t.Helper()
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(enc)
}

// The fusion-aware network search is deterministic and independent of how
// many layers and segments are searched concurrently: the golden digest,
// recorded before segment searches ran in parallel, comes out unchanged at
// every worker count.
func TestSearchNetworkGolden(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		if got := networkDigest(t, p); got != networkGolden {
			t.Errorf("Parallel %d: network digest %s, want %s", p, got, networkGolden)
		}
	}
}
