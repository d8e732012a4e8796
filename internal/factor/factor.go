// Package factor provides the integer-factorization substrate underlying
// mapspace construction: prime factorizations, divisor enumeration, ordered
// factorizations (Timeloop-style index factorization), and perfect/imperfect
// tile-chain enumeration and counting (the Ruby formulation).
//
// Throughout this package a "chain" over a dimension of size D is a sequence
// of per-slot factors f_1..f_k, applied innermost-first, with the residual
// recursion of the Ruby paper (eq. 5 rewritten as ceiling division):
//
//	r_0 = D
//	r_i = ceil(r_{i-1} / f_i)
//
// A chain is complete when r_k == 1. A slot is *perfect* when f_i must divide
// r_{i-1} (Timeloop's index factorization, eq. 1) and *imperfect* when any
// f_i in [1, r_{i-1}] is allowed (Ruby's remainder terms).
package factor

import (
	"fmt"
	"math"
	"sort"
)

// PrimePower is one term p^e of a prime factorization.
type PrimePower struct {
	P int // prime
	E int // exponent, >= 1
}

// PrimeFactorization returns the prime factorization of n in ascending prime
// order. It panics if n < 1. PrimeFactorization(1) returns an empty slice.
func PrimeFactorization(n int) []PrimePower {
	if n < 1 {
		panic(fmt.Sprintf("factor: PrimeFactorization of %d", n))
	}
	var out []PrimePower
	for p := 2; p*p <= n; p++ {
		if n%p != 0 {
			continue
		}
		e := 0
		for n%p == 0 {
			n /= p
			e++
		}
		out = append(out, PrimePower{P: p, E: e})
	}
	if n > 1 {
		out = append(out, PrimePower{P: n, E: 1})
	}
	return out
}

// Primes returns the flattened prime factor multiset of n in ascending order,
// e.g. Primes(12) = [2 2 3].
func Primes(n int) []int {
	var out []int
	for _, pp := range PrimeFactorization(n) {
		for i := 0; i < pp.E; i++ {
			out = append(out, pp.P)
		}
	}
	return out
}

// Divisors returns all positive divisors of n in ascending order.
// It panics if n < 1.
func Divisors(n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("factor: Divisors of %d", n))
	}
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if q := n / d; q != d {
				out = append(out, q)
			}
		}
	}
	sort.Ints(out)
	return out
}

// CountDivisors returns the number of positive divisors of n.
func CountDivisors(n int) int {
	c := 1
	for _, pp := range PrimeFactorization(n) {
		c *= pp.E + 1
	}
	return c
}

// CeilDiv returns ceil(a/b) for positive a, b.
func CeilDiv(a, b int) int {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("factor: CeilDiv(%d, %d)", a, b))
	}
	return (a + b - 1) / b
}

// CountOrderedFactorizations returns the number of ordered k-tuples of
// positive integers whose product is exactly n. This is the size of the
// perfect-factorization choice set for one dimension across k slots:
// for n = prod p_i^{e_i} the count is prod C(e_i + k - 1, k - 1).
func CountOrderedFactorizations(n, k int) uint64 {
	if k <= 0 {
		if n == 1 {
			return 1
		}
		return 0
	}
	total := uint64(1)
	for _, pp := range PrimeFactorization(n) {
		total *= binomial(pp.E+k-1, k-1)
	}
	return total
}

// binomial computes C(n, k) in uint64. Inputs in this package stay far below
// overflow territory (exponents of dimensions up to a few thousand).
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := uint64(1)
	for i := 1; i <= k; i++ {
		res = res * uint64(n-k+i) / uint64(i)
	}
	return res
}

// OrderedFactorizations calls yield for every ordered k-tuple of positive
// integers with product n, in lexicographic order. The slice passed to yield
// is reused between calls; copy it if it must be retained. Enumeration stops
// early when yield returns false.
func OrderedFactorizations(n, k int, yield func([]int) bool) {
	if k <= 0 {
		if n == 1 {
			yield(nil)
		}
		return
	}
	buf := make([]int, k)
	var rec func(rem, i int) bool
	rec = func(rem, i int) bool {
		if i == k-1 {
			buf[i] = rem
			return yield(buf)
		}
		for _, d := range Divisors(rem) {
			buf[i] = d
			if !rec(rem/d, i+1) {
				return false
			}
		}
		return true
	}
	rec(n, 0)
}

// SlotKind states whether a chain slot must factor perfectly (divide the
// residual) or may leave a remainder.
type SlotKind uint8

const (
	// Perfect slots require the slot factor to divide the incoming residual
	// (Timeloop index factorization).
	Perfect SlotKind = iota
	// Imperfect slots admit any factor in [1, residual], leaving a remainder
	// tile on the final iteration (Ruby).
	Imperfect
)

func (k SlotKind) String() string {
	switch k {
	case Perfect:
		return "perfect"
	case Imperfect:
		return "imperfect"
	default:
		return fmt.Sprintf("SlotKind(%d)", uint8(k))
	}
}

// ChainSlot describes one slot of a chain for enumeration/counting purposes:
// its kind and an optional inclusive cap on the factor (0 = uncapped). Caps
// model hardware fanout limits (e.g. a spatial slot with 9 PEs).
type ChainSlot struct {
	Kind SlotKind
	Max  int
}

// CountChains returns the number of distinct factor tuples (f_1..f_k), with
// slots applied innermost-first, whose residual recursion terminates at 1.
// This is the per-dimension mapspace size studied in Table I of the paper.
//
// Canonical-form rules, mirroring the paper's enumeration:
//   - Perfect slot: f must divide the residual r; residual becomes r/f.
//   - Imperfect slot: any f in [1, r]; residual becomes ceil(r/f). Factors
//     above r are excluded since they duplicate the f == r allocation.
//   - A chain counts only if the final residual is exactly 1.
func CountChains(d int, slots []ChainSlot) uint64 {
	if d < 1 {
		panic(fmt.Sprintf("factor: CountChains dimension %d", d))
	}
	type key struct{ r, i int }
	memo := make(map[key]uint64)
	var count func(r, i int) uint64
	count = func(r, i int) uint64 {
		if i == len(slots) {
			if r == 1 {
				return 1
			}
			return 0
		}
		if r == 1 {
			// All remaining slots must take factor 1; exactly one way.
			return 1
		}
		k := key{r, i}
		if v, ok := memo[k]; ok {
			return v
		}
		var total uint64
		s := slots[i]
		switch s.Kind {
		case Perfect:
			for _, f := range Divisors(r) {
				if s.Max > 0 && f > s.Max {
					continue
				}
				total += count(r/f, i+1)
			}
		case Imperfect:
			hi := r
			if s.Max > 0 && s.Max < hi {
				hi = s.Max
			}
			for f := 1; f <= hi; f++ {
				total += count(CeilDiv(r, f), i+1)
			}
		}
		memo[k] = total
		return total
	}
	return count(d, 0)
}

// EnumerateChains calls yield for every factor tuple counted by CountChains,
// innermost slot first. The slice passed to yield is reused; copy to retain.
// Enumeration stops early when yield returns false.
//
// divisors supplies the ascending divisor list of each residual a perfect
// slot splits; nil selects Divisors. Callers that enumerate many chains over
// the same bounds pass a memoized source (a mapspace's shared cache) so the
// recursion does not recompute and reallocate the list at every node. The
// source's slices are only read.
func EnumerateChains(d int, slots []ChainSlot, divisors func(n int) []int, yield func(factors []int) bool) {
	if d < 1 {
		panic(fmt.Sprintf("factor: EnumerateChains dimension %d", d))
	}
	if divisors == nil {
		divisors = Divisors
	}
	buf := make([]int, len(slots))
	var rec func(r, i int) bool
	rec = func(r, i int) bool {
		if i == len(slots) {
			if r == 1 {
				return yield(buf)
			}
			return true
		}
		if r == 1 {
			buf[i] = 1
			return rec(1, i+1)
		}
		s := slots[i]
		switch s.Kind {
		case Perfect:
			for _, f := range divisors(r) {
				if s.Max > 0 && f > s.Max {
					continue
				}
				buf[i] = f
				if !rec(r/f, i+1) {
					return false
				}
			}
		case Imperfect:
			hi := r
			if s.Max > 0 && s.Max < hi {
				hi = s.Max
			}
			for f := 1; f <= hi; f++ {
				buf[i] = f
				if !rec(CeilDiv(r, f), i+1) {
					return false
				}
			}
		}
		return true
	}
	rec(d, 0)
}

// ValidateChain checks that factors form a complete chain over dimension d
// with the given slot kinds, returning a descriptive error otherwise.
func ValidateChain(d int, slots []ChainSlot, factors []int) error {
	if len(factors) != len(slots) {
		return fmt.Errorf("factor: chain has %d factors for %d slots", len(factors), len(slots))
	}
	r := d
	for i, f := range factors {
		if f < 1 {
			return fmt.Errorf("factor: slot %d factor %d < 1", i, f)
		}
		if r == 1 {
			if f != 1 {
				return fmt.Errorf("factor: slot %d factor %d after residual reached 1", i, f)
			}
			continue
		}
		if f > r {
			return fmt.Errorf("factor: slot %d factor %d exceeds residual %d", i, f, r)
		}
		if slots[i].Max > 0 && f > slots[i].Max {
			return fmt.Errorf("factor: slot %d factor %d exceeds cap %d", i, f, slots[i].Max)
		}
		switch slots[i].Kind {
		case Perfect:
			if r%f != 0 {
				return fmt.Errorf("factor: slot %d is perfect but %d does not divide residual %d", i, f, r)
			}
			r /= f
		case Imperfect:
			r = CeilDiv(r, f)
		}
	}
	if r != 1 {
		return fmt.Errorf("factor: chain leaves residual %d over dimension %d", r, d)
	}
	return nil
}

// Log2Chains returns log2 of CountChains, useful for plotting Table I-style
// growth without overflow concerns at display time.
func Log2Chains(d int, slots []ChainSlot) float64 {
	c := CountChains(d, slots)
	if c == 0 {
		return math.Inf(-1)
	}
	return math.Log2(float64(c))
}
