package search

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// guidedSpace is one mapspace the guided golden and enumeration tests run
// on.
type guidedSpace struct {
	name  string
	build func() *mapspace.Space
}

// guidedConv is the ResNet-50 3x3 conv the larger golden spaces tile, on
// the Eyeriss-like array (slots T(DRAM), T(GLB), SY(GLB), SX(GLB), T(PE)).
func guidedConv() (*workload.Workload, *arch.Arch) {
	return workloads.ResNet50()[3].Work, arch.EyerissLike(14, 12, 128)
}

// guidedSpaces covers both factorization disciplines, free and fixed loop
// orders, bypass exploration, a fused space and the TPU array whose optimum
// splits one fanout between two dims (the spatial rescue's neighborhood).
func guidedSpaces() []guidedSpace {
	conv := func(kind mapspace.Kind, cons func(w *workload.Workload) mapspace.Constraints) func() *mapspace.Space {
		return func() *mapspace.Space {
			w, a := guidedConv()
			return mapspace.New(w, a, kind, cons(w))
		}
	}
	return []guidedSpace{
		{"conv/ruby-s", conv(mapspace.RubyS, mapspace.EyerissRowStationary)},
		{"conv/pfm", conv(mapspace.PFM, mapspace.EyerissRowStationary)},
		{"conv/ruby-s-bypass", conv(mapspace.RubyS, func(w *workload.Workload) mapspace.Constraints {
			c := mapspace.EyerissRowStationary(w)
			c.ExploreBypass = true
			return c
		})},
		{"conv/ruby-s-fused", conv(mapspace.RubyS, func(w *workload.Workload) mapspace.Constraints {
			c := mapspace.EyerissStrictRowStationary(w)
			c.MaxTemporalFactor = 8
			c.FuseTile = map[string]int{"P": 28, "Q": 14, "M": 48, "C": 20}
			c.FuseLevel = 1
			return c
		})},
		{"mm/eyeriss-fixed", func() *mapspace.Space {
			return mapspace.New(workload.MustMatmul("mm", 8, 12, 18), arch.EyerissLike(14, 12, 128),
				mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
		}},
		{"mm/tpu-ruby-s", func() *mapspace.Space {
			return mapspace.New(workload.MustMatmul("mm", 8, 24, 10), arch.TPULike(8, 8, 256),
				mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
		}},
		{"mm/tpu-pfm", func() *mapspace.Space {
			return mapspace.New(workload.MustMatmul("mm", 8, 24, 10), arch.TPULike(8, 8, 256),
				mapspace.PFM, mapspace.Constraints{})
		}},
	}
}

// guidedGolden is one pinned guided run: a space, a seed and a budget (0:
// run until the stale-restart patience stops the search). steps > 0 stops
// after that many Steps instead and pins the mid-run snapshot. want is the
// FNV-64a hash of the outcome, recorded on the searcher before its seed and
// rescue passes were made allocation-free.
type guidedGolden struct {
	space  string
	seed   int64
	budget int64
	steps  int
	note   string
	want   uint64
}

var guidedGoldens = []guidedGolden{
	{"conv/ruby-s", 1, 3000, 0, "", 0x679e935440c969e0},
	{"conv/pfm", 2, 3000, 0, "", 0xef5e5d5acd59db36},
	{"conv/ruby-s-bypass", 3, 3000, 0, "", 0xc2e3e528412ea846},
	{"conv/ruby-s-fused", 4, 3000, 0, "", 0xef3561322e71bccb},
	{"mm/eyeriss-fixed", 1, 0, 0, "", 0x9b0881922c9620e7},
	{"mm/tpu-ruby-s", 1, 0, 0, "", 0xeaeae6a0dc9a3445},
	{"mm/tpu-pfm", 5, 0, 0, "", 0xeabec02b4572592e},
	{"conv/ruby-s", 1, 20, 0, "budget ends in the spatial seeds", 0x2c385c08821c22af},
	{"conv/ruby-s", 1, 1670, 0, "budget ends in an improving rescue", 0x574d902059ce1dac},
	{"mm/tpu-ruby-s", 1, 1612, 0, "budget ends in an improving rescue", 0x404053c967f6fc62},
	{"conv/ruby-s-fused", 4, 2975, 0, "budget ends in a rescue", 0x1e2910f8dab00489},
	{"conv/pfm", 2, 2460, 0, "budget ends in a diversification batch", 0x893534a728a50bb9},
	{"mm/eyeriss-fixed", 1, 4827, 0, "budget ends in a perturbation kick", 0xc73932471ef2f03d},
	{"conv/ruby-s-bypass", 3, 3000, 6, "mid-run snapshot", 0x1e5e637bc7971b5b},
	{"mm/tpu-ruby-s", 1, 0, 9, "mid-run snapshot after a restart", 0x6ad89b9107cea0b0},
}

// hashGuided folds a guided run's observable outcome into h: the best
// mapping's encoding, every field of its cost, the evaluation counters, the
// improvement trace and the searcher's snapshot (RNG state, phase, restart
// counters and the working mapping cur).
func hashGuided(t *testing.T, h hash.Hash64, s *GuidedSearcher) {
	t.Helper()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	res := s.Result()
	if res.Best != nil {
		raw, err := res.Best.Encode()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	c := &res.BestCost
	if c.Valid {
		put(1)
	}
	h.Write([]byte(c.Reason))
	for _, v := range []float64{c.Cycles, c.MACs, c.Utilization, c.EnergyPJ, c.EDP, c.MACEnergyPJ, c.NoCEnergyPJ, c.StaticEnergyPJ} {
		putF(v)
	}
	for _, vs := range [][]float64{c.LevelReads, c.LevelWrites, c.LevelEnergyPJ} {
		put(uint64(len(vs)))
		for _, v := range vs {
			putF(v)
		}
	}
	h.Write([]byte(c.BandwidthBound))
	put(uint64(res.Evaluated))
	put(uint64(res.Valid))
	put(uint64(len(res.Trace)))
	for _, tp := range res.Trace {
		put(uint64(tp.Evals))
		putF(tp.Value)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
}

// TestGuidedGolden pins the guided searcher's outputs — best mapping and
// cost, evaluation counts, trace and snapshot — per space, seed and budget.
// The hashes were recorded before the seed builder, the spatial rescue and
// the exact chain lists were rewritten to stop allocating; any change to a
// draw, an evaluation count or the working mapping shows up here.
func TestGuidedGolden(t *testing.T) {
	spaces := map[string]func() *mapspace.Space{}
	for _, gs := range guidedSpaces() {
		spaces[gs.name] = gs.build
	}
	for _, g := range guidedGoldens {
		sp := spaces[g.space]()
		eng := engine.New(nest.MustEvaluator(sp.Work, sp.Arch))
		s := NewGuided(sp, eng, Options{Seed: g.seed, MaxEvaluations: g.budget})
		for i := 0; g.steps == 0 || i < g.steps; i++ {
			done, err := s.Step(context.Background())
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.space, g.seed, err)
			}
			if done {
				break
			}
		}
		h := fnv.New64a()
		hashGuided(t, h, s)
		res := s.Result()
		t.Logf("%s seed %d budget %d steps %d: evaluated %d, restarts %d, phase %s, hash %#x",
			g.space, g.seed, g.budget, g.steps, res.Evaluated, s.restarts, s.phase, h.Sum64())
		if got := h.Sum64(); got != g.want {
			t.Errorf("%s seed %d budget %d steps %d (%s): hash %#x, want %#x",
				g.space, g.seed, g.budget, g.steps, g.note, got, g.want)
		}
	}
}
