package mapspace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// samplerCase is one constraint configuration the sampler tests sweep per
// Kind: together the cases reach every branch of the sampling core (spatial
// allow-lists, required spatial allocation, temporal caps, fixed loop
// orders, bypass exploration, and fused chains whose required spatial
// slots lie inside the fused region (fusion at the GLB) or outside it
// (fusion at the PE)).
type samplerCase struct {
	name string
	cons func(w *workload.Workload) Constraints
}

// samplerFixture is the workload and architecture the sampler cases run on:
// a ResNet-50 3x3 conv on the Eyeriss-like array (slots T(DRAM), T(GLB),
// SY(GLB), SX(GLB), T(PE)).
func samplerFixture() (*workload.Workload, *arch.Arch) {
	return workloads.ResNet50()[3].Work, arch.EyerissLike(14, 12, 128)
}

// fuseTiles are fused advances for the fixture: P and Q divide their
// bounds, M and C do not (so PFM must shrink their extents).
var fuseTiles = map[string]int{"P": 28, "Q": 14, "M": 48, "C": 20}

var samplerCases = []samplerCase{
	{"row-stationary", EyerissRowStationary},
	{"strict", EyerissStrictRowStationary},
	{"max-temporal", func(w *workload.Workload) Constraints {
		c := EyerissRowStationary(w)
		c.MaxTemporalFactor = 8
		return c
	}},
	{"fixed-perms", func(w *workload.Workload) Constraints {
		c := EyerissRowStationary(w)
		c.FixedPerms = true
		return c
	}},
	{"bypass", func(w *workload.Workload) Constraints {
		c := EyerissRowStationary(w)
		c.ExploreBypass = true
		return c
	}},
	{"fused-inner", func(w *workload.Workload) Constraints {
		c := EyerissStrictRowStationary(w)
		c.MaxTemporalFactor = 8
		c.FuseTile, c.FuseLevel = fuseTiles, 1
		return c
	}},
	{"fused-outer", func(w *workload.Workload) Constraints {
		c := EyerissStrictRowStationary(w)
		c.ExploreBypass = true
		c.FuseTile, c.FuseLevel = fuseTiles, 2
		return c
	}},
}

// hashMapping folds a mapping's Factors, Perms and Keep — representation
// details included (nil Keep vs nil level override vs explicit roles) —
// into h in a map-order-independent way.
func hashMapping(h hash.Hash64, w *workload.Workload, m *mapping.Mapping) {
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, d := range w.Dims {
		fs := m.Factors[d.Name]
		put(len(fs))
		for _, f := range fs {
			put(f)
		}
	}
	put(len(m.Perms))
	for _, p := range m.Perms {
		put(len(p))
		for _, d := range p {
			h.Write([]byte(d))
			h.Write([]byte{0})
		}
	}
	if m.Keep == nil {
		put(-1)
		return
	}
	put(len(m.Keep))
	for _, k := range m.Keep {
		if k == nil {
			put(-1)
			continue
		}
		put(len(k))
		for _, r := range workload.Roles {
			v, ok := k[r]
			switch {
			case !ok:
				put(0)
			case v:
				put(1)
			default:
				put(2)
			}
		}
	}
}

// drawHashes returns the hash of the first n SampleInto outputs and of the
// first n Mutator.ProposeChainID chains (dimension drawn from the same rng)
// at a fixed seed.
func drawHashes(sp *Space, n int) (sample, chain string) {
	h := fnv.New64a()
	smp := sp.NewSampler()
	rng := rand.New(rand.NewSource(20220523))
	m := &mapping.Mapping{}
	for i := 0; i < n; i++ {
		smp.SampleInto(rng, m)
		hashMapping(h, sp.Work, m)
	}
	sample = fmt.Sprintf("%016x", h.Sum64())

	h.Reset()
	mu := sp.NewMutator()
	var buf [8]byte
	for i := 0; i < n; i++ {
		mv := mu.ProposeChainID(rng, rng.Intn(mu.NumDims()))
		binary.LittleEndian.PutUint64(buf[:], uint64(mv.delta.Dim))
		h.Write(buf[:])
		for _, f := range mv.chain {
			binary.LittleEndian.PutUint64(buf[:], uint64(f))
			h.Write(buf[:])
		}
	}
	return sample, fmt.Sprintf("%016x", h.Sum64())
}

// goldenDraws pins the sampler's draw sequence: per (case, Kind), the hashes
// of the first 1000 SampleInto mappings and the first 1000 mutator chain
// proposals at seed 20220523. They were recorded before the sampler moved
// to its integer-id core; any change to the rng calls, their arguments or
// the values drawn shows up here. A deliberate change to the sampling
// distribution must re-record them and say so.
var goldenDraws = map[string][2]string{
	"row-stationary/PFM":    {"5b9dd3b27aaec413", "8bd266c16096b011"},
	"row-stationary/Ruby":   {"dec453418b971477", "79e8a5ed033ba06b"},
	"row-stationary/Ruby-S": {"c8305bed27982d79", "c1e4bd1a5e6b79a1"},
	"row-stationary/Ruby-T": {"c2cdde9a273493d2", "e38f02778da92708"},
	"strict/PFM":            {"3c0473950d6b1aa7", "8c79da17bf72cbeb"},
	"strict/Ruby":           {"429fed932d96e468", "80bc0d71d1d983e4"},
	"strict/Ruby-S":         {"6c1651212860964e", "2da46053e04dcbab"},
	"strict/Ruby-T":         {"779e9ab137735c6a", "a771a83c66b02540"},
	"max-temporal/PFM":      {"bed01779d4119c9f", "abe4341bc4b7b5d9"},
	"max-temporal/Ruby":     {"b5c6ef25263b704f", "01cb44b22fba8380"},
	"max-temporal/Ruby-S":   {"d1884f04c51dd242", "3fdd4d516faf1daf"},
	"max-temporal/Ruby-T":   {"c8f8d4e6327f3c86", "5901c84d94796abb"},
	"fixed-perms/PFM":       {"bdb9259a17acdc7e", "7b3a61be61f4f2a5"},
	"fixed-perms/Ruby":      {"6b963ffa572e0d0b", "a6dfc96d21ceb59c"},
	"fixed-perms/Ruby-S":    {"a95897b9d0a3fcb8", "ea0a040ffb880e25"},
	"fixed-perms/Ruby-T":    {"9a6c5e11e88da53b", "8d40ef6d94278bdf"},
	"bypass/PFM":            {"ac2a8b5a4447596b", "f38799672e78ce53"},
	"bypass/Ruby":           {"860c1e07ebb9d410", "f06e2c5aae001c58"},
	"bypass/Ruby-S":         {"6ffc6b8fea814103", "d4b41c969fc43f00"},
	"bypass/Ruby-T":         {"a6e8d775ea76207d", "26fdb385fe785be6"},
	"fused-inner/PFM":       {"8b9c2847c1594cee", "01e4b6aa5b1e88b9"},
	"fused-inner/Ruby":      {"201195ea5066534b", "c49581f2eb66ade9"},
	"fused-inner/Ruby-S":    {"a15e423174092322", "620f7f5fc3e02f93"},
	"fused-inner/Ruby-T":    {"6585d6ecd71fb4ad", "c94ba1e0bc70b7e1"},
	"fused-outer/PFM":       {"bfbab6c03f6a077b", "23f2f9dd94748464"},
	"fused-outer/Ruby":      {"1caac720a06c6253", "fc96590bc3b6eea9"},
	"fused-outer/Ruby-S":    {"a80eecf4ef00d9be", "aa991f1289c74b5e"},
	"fused-outer/Ruby-T":    {"8e894b549b76f406", "478858162b2c46f7"},
}

func TestGoldenDraws(t *testing.T) {
	w, a := samplerFixture()
	for _, c := range samplerCases {
		for _, kind := range Kinds {
			key := c.name + "/" + kind.String()
			sample, chain := drawHashes(New(w, a, kind, c.cons(w)), 1000)
			want, ok := goldenDraws[key]
			if !ok {
				t.Errorf("%q: {%q, %q}, // not pinned", key, sample, chain)
				continue
			}
			if sample != want[0] {
				t.Errorf("%s: SampleInto draw hash %s, pinned %s", key, sample, want[0])
			}
			if chain != want[1] {
				t.Errorf("%s: ProposeChainID draw hash %s, pinned %s", key, chain, want[1])
			}
		}
	}
}
