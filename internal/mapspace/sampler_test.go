package mapspace

import (
	"math/rand"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workloads"
)

// TestSampleIntoMatchesSample pins the in-place sampler to the allocating
// one: with the same seed, both entry points must consume the rng
// identically and produce identical mapping sequences, so seeded searches
// stay reproducible whichever path they use.
func TestSampleIntoMatchesSample(t *testing.T) {
	w := workloads.ResNet50()[3].Work
	a := arch.EyerissLike(14, 12, 128)
	for _, kind := range Kinds {
		for _, bypass := range []bool{false, true} {
			cons := EyerissRowStationary(w)
			cons.ExploreBypass = bypass
			sp := New(w, a, kind, cons)

			rngA := rand.New(rand.NewSource(99))
			rngB := rand.New(rand.NewSource(99))
			smp := sp.NewSampler()
			m := &mapping.Mapping{}
			for i := 0; i < 200; i++ {
				want := sp.Sample(rngA)
				smp.SampleInto(rngB, m)
				if !reflect.DeepEqual(m.Factors, want.Factors) {
					t.Fatalf("kind %v bypass %v draw %d: factors diverge\n got %v\nwant %v",
						kind, bypass, i, m.Factors, want.Factors)
				}
				if !reflect.DeepEqual(m.Perms, want.Perms) {
					t.Fatalf("kind %v bypass %v draw %d: perms diverge", kind, bypass, i)
				}
				if !reflect.DeepEqual(m.Keep, want.Keep) {
					t.Fatalf("kind %v bypass %v draw %d: keep diverges", kind, bypass, i)
				}
			}
		}
	}
}

// TestSampleIntoPreLowers checks the sampler emits the dense form: after
// SampleInto, the mapping's lowering is already memoized and valid.
func TestSampleIntoPreLowers(t *testing.T) {
	w := workloads.ResNet50()[1].Work
	a := arch.SimbaLike(15, 4, 4)
	sp := New(w, a, RubyS, SimbaDataflow(w))
	smp := sp.NewSampler()
	rng := rand.New(rand.NewSource(5))
	m := &mapping.Mapping{}
	for i := 0; i < 50; i++ {
		smp.SampleInto(rng, m)
		dm, err := m.Dense(w, a, sp.Slots())
		if err != nil {
			t.Fatalf("draw %d: sampled mapping failed to lower: %v", i, err)
		}
		if dm.NDims != len(w.Dims) || dm.NSlots != len(sp.Slots()) {
			t.Fatalf("draw %d: dense shape %dx%d", i, dm.NDims, dm.NSlots)
		}
	}
}

// TestSampleIntoDenseMatchesDensify is the differential test of the
// sampler's direct lowering: after every SampleInto the memoized dense form
// must equal, bit for bit, a fresh densify of a clone of the sampled fields
// — and so must the in-place patch of every Mutator.ProposeChainID chain
// applied on top. Every Kind runs under every sampler case.
func TestSampleIntoDenseMatchesDensify(t *testing.T) {
	w, a := samplerFixture()
	const draws = 2000
	for _, c := range samplerCases {
		for _, kind := range Kinds {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				sp := New(w, a, kind, c.cons(w))
				smp, mu := sp.NewSampler(), sp.NewMutator()
				rng := rand.New(rand.NewSource(int64(kind) + 1))
				m := &mapping.Mapping{}
				for i := 0; i < draws; i++ {
					smp.SampleInto(rng, m)
					requireDenseMatchesFresh(t, sp, m)
					mu.ProposeChainID(rng, rng.Intn(mu.NumDims())).Apply(m)
					requireDenseMatchesFresh(t, sp, m)
				}
			})
		}
	}
}

// TestSampleIntoBypassAllocFree pins the steady-state sampler to zero
// allocations when it explores bypass: the Keep maps, the override slice
// and the dense keep masks are all reused across draws.
func TestSampleIntoBypassAllocFree(t *testing.T) {
	w, a := samplerFixture()
	cons := EyerissRowStationary(w)
	cons.ExploreBypass = true
	smp := New(w, a, RubyS, cons).NewSampler()
	rng := rand.New(rand.NewSource(3))
	m := &mapping.Mapping{}
	smp.SampleInto(rng, m) // first draw shapes m's storage
	if n := testing.AllocsPerRun(200, func() { smp.SampleInto(rng, m) }); n != 0 {
		t.Fatalf("SampleInto under ExploreBypass allocates %v times per draw", n)
	}
}
