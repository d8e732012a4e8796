package factor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPrimeFactorization(t *testing.T) {
	cases := []struct {
		n    int
		want []PrimePower
	}{
		{1, nil},
		{2, []PrimePower{{2, 1}}},
		{12, []PrimePower{{2, 2}, {3, 1}}},
		{97, []PrimePower{{97, 1}}},
		{100, []PrimePower{{2, 2}, {5, 2}}},
		{4096, []PrimePower{{2, 12}}},
		{2310, []PrimePower{{2, 1}, {3, 1}, {5, 1}, {7, 1}, {11, 1}}},
	}
	for _, c := range cases {
		got := PrimeFactorization(c.n)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("PrimeFactorization(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPrimeFactorizationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PrimeFactorization(0) did not panic")
		}
	}()
	PrimeFactorization(0)
}

func TestPrimeFactorizationReconstructs(t *testing.T) {
	f := func(n int) bool {
		n = n%10000 + 1
		if n < 1 {
			n = -n + 1
		}
		prod := 1
		for _, pp := range PrimeFactorization(n) {
			for i := 0; i < pp.E; i++ {
				prod *= pp.P
			}
		}
		return prod == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrimes(t *testing.T) {
	if got := Primes(360); !reflect.DeepEqual(got, []int{2, 2, 2, 3, 3, 5}) {
		t.Errorf("Primes(360) = %v", got)
	}
	if got := Primes(1); got != nil {
		t.Errorf("Primes(1) = %v, want nil", got)
	}
}

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{7, []int{1, 7}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{100, []int{1, 2, 4, 5, 10, 20, 25, 50, 100}},
		{36, []int{1, 2, 3, 4, 6, 9, 12, 18, 36}},
	}
	for _, c := range cases {
		if got := Divisors(c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestDivisorsProperties(t *testing.T) {
	f := func(n int) bool {
		n = n%5000 + 1
		if n < 1 {
			n = -n + 1
		}
		ds := Divisors(n)
		if len(ds) != CountDivisors(n) {
			return false
		}
		for i, d := range ds {
			if n%d != 0 {
				return false
			}
			if i > 0 && ds[i-1] >= d {
				return false // strictly ascending
			}
		}
		return ds[0] == 1 && ds[len(ds)-1] == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{100, 6, 17}, {100, 5, 20}, {1, 1, 1}, {7, 7, 1}, {8, 7, 2}, {27, 14, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCountOrderedFactorizations(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{1, 3, 1},
		{7, 1, 1},
		{7, 2, 2},  // 1*7, 7*1
		{4, 2, 3},  // 1*4, 2*2, 4*1
		{12, 2, 6}, // one per divisor
		{12, 3, 18},
		{100, 3, 36}, // (2+2 choose 2)^2 = 6*6
		{6, 0, 0},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := CountOrderedFactorizations(c.n, c.k); got != c.want {
			t.Errorf("CountOrderedFactorizations(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestOrderedFactorizationsMatchesCount(t *testing.T) {
	for _, n := range []int{1, 2, 7, 12, 36, 100, 128} {
		for k := 1; k <= 4; k++ {
			var got uint64
			OrderedFactorizations(n, k, func(fs []int) bool {
				prod := 1
				for _, f := range fs {
					prod *= f
				}
				if prod != n {
					t.Fatalf("OrderedFactorizations(%d,%d) yielded %v with product %d", n, k, fs, prod)
				}
				got++
				return true
			})
			if want := CountOrderedFactorizations(n, k); got != want {
				t.Errorf("OrderedFactorizations(%d,%d) yielded %d tuples, want %d", n, k, got, want)
			}
		}
	}
}

func TestOrderedFactorizationsEarlyStop(t *testing.T) {
	calls := 0
	OrderedFactorizations(36, 3, func([]int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop: got %d calls, want 3", calls)
	}
}

// perfectSlots returns k uncapped perfect slots.
func perfectSlots(k int) []ChainSlot {
	s := make([]ChainSlot, k)
	return s
}

// imperfectSlots returns k uncapped imperfect slots.
func imperfectSlots(k int) []ChainSlot {
	s := make([]ChainSlot, k)
	for i := range s {
		s[i].Kind = Imperfect
	}
	return s
}

func TestCountChainsPerfectEqualsOrderedFactorizations(t *testing.T) {
	for _, d := range []int{1, 3, 7, 12, 100, 360} {
		for k := 1; k <= 4; k++ {
			got := CountChains(d, perfectSlots(k))
			want := CountOrderedFactorizations(d, k)
			if got != want {
				t.Errorf("CountChains(%d, %d perfect) = %d, want %d", d, k, got, want)
			}
		}
	}
}

func TestCountChainsImperfectSmall(t *testing.T) {
	// d=2, two imperfect slots: tuples (innermost first) with residual rule:
	// (1,2): r=2->2->1 ok; (2,1): r=2->1->1 ok. f1=2 forces r=1 then f2=1.
	if got := CountChains(2, imperfectSlots(2)); got != 2 {
		t.Errorf("CountChains(2, imperfect^2) = %d, want 2", got)
	}
	// d=3, two imperfect slots: f1 in {1,2,3}: f1=1 -> r=3 -> f2=3;
	// f1=2 -> r=2 -> f2=2; f1=3 -> r=1 -> f2=1. Three chains.
	if got := CountChains(3, imperfectSlots(2)); got != 3 {
		t.Errorf("CountChains(3, imperfect^2) = %d, want 3", got)
	}
	// One imperfect slot: only f=d works.
	for _, d := range []int{1, 2, 9, 17} {
		if got := CountChains(d, imperfectSlots(1)); got != 1 {
			t.Errorf("CountChains(%d, imperfect^1) = %d, want 1", d, got)
		}
	}
	// Two imperfect slots: every f1 in [1,d] yields exactly one completion.
	for _, d := range []int{1, 2, 9, 17, 100} {
		if got := CountChains(d, imperfectSlots(2)); got != uint64(d) {
			t.Errorf("CountChains(%d, imperfect^2) = %d, want %d", d, got, d)
		}
	}
}

func TestCountChainsSupersetOfPerfect(t *testing.T) {
	// Ruby's mapspace is a strict superset of the PFM mapspace for any d > 2
	// and >= 2 slots (the paper's eq. 5 reduces to eq. 1 when R_n = P_n).
	for _, d := range []int{3, 9, 100, 127} {
		for k := 2; k <= 3; k++ {
			p := CountChains(d, perfectSlots(k))
			r := CountChains(d, imperfectSlots(k))
			if r <= p {
				t.Errorf("d=%d k=%d: Ruby count %d not > PFM count %d", d, k, r, p)
			}
		}
	}
}

func TestEnumerateChainsMatchesCountAndValidates(t *testing.T) {
	slotSets := [][]ChainSlot{
		perfectSlots(3),
		imperfectSlots(3),
		{{Kind: Imperfect, Max: 9}, {Kind: Perfect}, {Kind: Perfect}},
		{{Kind: Perfect}, {Kind: Imperfect}, {Kind: Perfect, Max: 4}},
	}
	for _, slots := range slotSets {
		for _, d := range []int{1, 5, 12, 28} {
			var got uint64
			seen := make(map[string]bool)
			EnumerateChains(d, slots, nil, func(fs []int) bool {
				if err := ValidateChain(d, slots, fs); err != nil {
					t.Fatalf("EnumerateChains(%d, %v) yielded invalid %v: %v", d, slots, fs, err)
				}
				key := ""
				for _, f := range fs {
					key += string(rune(f)) + ","
				}
				if seen[key] {
					t.Fatalf("duplicate chain %v for d=%d", fs, d)
				}
				seen[key] = true
				got++
				return true
			})
			if want := CountChains(d, slots); got != want {
				t.Errorf("EnumerateChains(%d, %v) yielded %d, want %d", d, slots, got, want)
			}
		}
	}
}

// TestEnumerateChainsDivisorSource checks that a memoized divisor source
// yields exactly the chains, in exactly the order, of the default source,
// and that the source is consulted for the perfect slots' residuals.
func TestEnumerateChainsDivisorSource(t *testing.T) {
	slots := []ChainSlot{{Kind: Imperfect, Max: 9}, {Kind: Perfect}, {Kind: Perfect, Max: 4}, {Kind: Perfect}}
	memo := map[int][]int{}
	calls := 0
	source := func(n int) []int {
		calls++
		if ds, ok := memo[n]; ok {
			return ds
		}
		ds := Divisors(n)
		memo[n] = ds
		return ds
	}
	for _, d := range []int{1, 7, 12, 28, 56} {
		var want, got []int
		EnumerateChains(d, slots, nil, func(fs []int) bool {
			want = append(want, fs...)
			return true
		})
		EnumerateChains(d, slots, source, func(fs []int) bool {
			got = append(got, fs...)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("d=%d: memoized source yielded %d factors, default %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("d=%d: chains diverge at factor %d: %d vs %d", d, i, got[i], want[i])
			}
		}
	}
	if calls == 0 {
		t.Fatal("the divisor source was never consulted")
	}
}

func TestChainCapsPrune(t *testing.T) {
	// Fanout cap of 9 on the spatial (innermost) slot, as in Table I.
	capped := []ChainSlot{{Kind: Imperfect, Max: 9}, {Kind: Imperfect}}
	uncapped := imperfectSlots(2)
	for _, d := range []int{16, 100, 1000} {
		c := CountChains(d, capped)
		u := CountChains(d, uncapped)
		if c >= u {
			t.Errorf("d=%d: capped count %d not < uncapped %d", d, c, u)
		}
		if c != 9 {
			// With two imperfect slots and innermost cap 9, each f1 in [1,9]
			// completes exactly one way.
			t.Errorf("d=%d: capped count = %d, want 9", d, c)
		}
	}
}

func TestValidateChainErrors(t *testing.T) {
	slots := []ChainSlot{{Kind: Perfect}, {Kind: Imperfect}}
	cases := []struct {
		d  int
		fs []int
	}{
		{12, []int{5, 3}},    // 5 does not divide 12
		{12, []int{2, 2}},    // residual 3 left over
		{12, []int{0, 12}},   // factor < 1
		{12, []int{2, 6, 1}}, // wrong arity
		{12, []int{12, 2}},   // factor after residual hit 1
		{12, []int{2, 7}},    // imperfect factor exceeds residual 6
	}
	for _, c := range cases {
		if err := ValidateChain(c.d, slots, c.fs); err == nil {
			t.Errorf("ValidateChain(%d, %v) = nil, want error", c.d, c.fs)
		}
	}
	if err := ValidateChain(12, slots, []int{2, 6}); err != nil {
		t.Errorf("ValidateChain(12, [2 6]) = %v, want nil", err)
	}
	if err := ValidateChain(12, slots, []int{2, 4}); err != nil {
		// 12/2=6, ceil(6/4)=2... residual 2 != 1, so this must fail.
		t.Logf("as expected: %v", err)
	} else {
		t.Error("ValidateChain(12, [2 4]) = nil, want residual error")
	}
}

func TestChainMonotonicityProperty(t *testing.T) {
	// Property: for random d, the Ruby-S-style count (imperfect innermost,
	// perfect rest) lies between PFM and full Ruby.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		d := rng.Intn(300) + 2
		k := rng.Intn(2) + 2
		pfm := CountChains(d, perfectSlots(k))
		mixed := make([]ChainSlot, k)
		mixed[0].Kind = Imperfect
		s := CountChains(d, mixed)
		ruby := CountChains(d, imperfectSlots(k))
		if s < pfm || ruby < s {
			t.Errorf("d=%d k=%d: want PFM(%d) <= Ruby-S-style(%d) <= Ruby(%d)", d, k, pfm, s, ruby)
		}
	}
}

func TestLog2Chains(t *testing.T) {
	if got := Log2Chains(4, perfectSlots(2)); got < 1.58 || got > 1.59 {
		t.Errorf("Log2Chains(4, perfect^2) = %f, want log2(3)", got)
	}
}
