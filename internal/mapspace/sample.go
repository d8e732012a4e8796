package mapspace

import (
	"math/rand"

	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Sampling rule bits, one byte per (dimension, slot) pair of the rule table.
const (
	ruleSpatial   uint8 = 1 << iota // the slot is a parFor
	ruleImperfect                   // the kind relaxes divisibility at the slot
	ruleAllowed                     // the dimension may take a factor > 1 at the slot
	ruleRequired                    // the dimension must take a spatial factor > 1 when it can
	ruleReqOuter                    // an outer spatial slot requires the dimension: leave it residual
)

// rules is a Space's sampling table: everything the sampler needs from the
// kind, the slots and the constraints' name lists, resolved once by New and
// indexed by workload dimension id (declaration order). It is immutable
// after construction, so every Sampler and Mutator of the space shares it.
// The per-dimension and per-level entries that only some constraint sets
// use are nil otherwise.
type rules struct {
	flags  []uint8 // [dim*nslots+slot] rule bits
	fanout []int   // per slot: the fresh spatial budget (0 for temporal slots)

	advance  []int  // per dimension: fused advance, 0 when unconstrained; nil unless fused
	reqFirst []bool // per dimension: required on an array axis, so drawn first; nil if none is

	// keepable is, per level, the RoleBit mask of roles bypass exploration
	// may drop there; nil unless some level has one.
	keepable []uint8
}

// buildRules resolves the space's sampling table.
func (s *Space) buildRules() rules {
	nd, ns := len(s.dimNames), len(s.slots)
	rt := rules{flags: make([]uint8, nd*ns), fanout: make([]int, ns)}
	for i, sl := range s.slots {
		if sl.Spatial() {
			rt.fanout[i] = sl.Fanout
		}
	}
	for di, d := range s.dimNames {
		if a, ok := s.fusedAdvance(d); ok {
			if rt.advance == nil {
				rt.advance = make([]int, nd)
			}
			rt.advance[di] = a
		}
		if s.Cons.required(mapping.SpatialX, d) || s.Cons.required(mapping.SpatialY, d) {
			if rt.reqFirst == nil {
				rt.reqFirst = make([]bool, nd)
			}
			rt.reqFirst[di] = true
		}
		reqOuter := false
		for i, sl := range s.slots {
			fl := ruleAllowed
			if sl.Spatial() {
				fl = ruleSpatial
				if s.Kind.imperfectSpatial() {
					fl |= ruleImperfect
				}
				if s.Cons.allowed(sl.Kind, d) {
					fl |= ruleAllowed
				}
				if s.Cons.required(sl.Kind, d) {
					fl |= ruleRequired
				}
			} else if s.Kind.imperfectTemporal() {
				fl |= ruleImperfect
			}
			if reqOuter {
				fl |= ruleReqOuter
			}
			reqOuter = reqOuter || fl&ruleRequired != 0
			rt.flags[di*ns+i] = fl
		}
	}
	if n := len(s.Arch.Levels); s.Cons.ExploreBypass && n > 2 {
		// Never DRAM, never the innermost level: dropping the last on-chip
		// home of a tensor is almost never useful and would dominate the
		// samples.
		keepable := make([]uint8, n)
		for li := 1; li < n-1; li++ {
			for _, r := range workload.Roles {
				if s.Arch.Levels[li].KeepsRole(r, false) {
					keepable[li] |= mapping.RoleBit(r)
					rt.keepable = keepable
				}
			}
		}
	}
	return rt
}

// advanceOf returns dimension di's fused advance, 0 when unconstrained.
//
//ruby:hotpath
func (rt *rules) advanceOf(di int) int {
	if rt.advance == nil {
		return 0
	}
	return rt.advance[di]
}

// Sample draws a random mapping. Factors are chosen slot-by-slot from each
// dimension's admissible set (divisors for perfect slots, any value up to the
// residual and fanout cap for imperfect slots); the outermost temporal slot
// absorbs whatever residual remains, exactly as in the chain formulation.
// Spatial factors additionally respect a shared per-slot fanout budget so
// that most samples pass the evaluator's fanout check. Permutations are
// uniform random unless FixedPerms is set.
//
// Sampled mappings are structurally valid but may still violate buffer
// capacities; the caller's search loop filters those, mirroring Timeloop's
// generate-then-filter design. Like SampleInto, Sample returns the mapping
// already lowered to its dense form.
func (s *Space) Sample(rng *rand.Rand) *mapping.Mapping {
	m := &mapping.Mapping{}
	s.sampleInto(rng, m, make([]int, len(s.slots)), make([]int, len(s.dimNames)), nil)
	return m
}

// Sampler owns the per-goroutine scratch for repeated in-place sampling.
// One Sampler per goroutine; the underlying Space stays shared.
type Sampler struct {
	sp     *Space
	budget []int
	order  []int
	dc     *divCache
}

// NewSampler builds a Sampler over the space.
func (s *Space) NewSampler() *Sampler {
	return &Sampler{
		sp:     s,
		budget: make([]int, len(s.slots)),
		order:  make([]int, len(s.dimNames)),
		dc:     s.newDivCache(),
	}
}

// SampleInto redraws m in place, reusing its factor slices, perm and bypass
// storage and its dense lowering, which the sampler writes in the same pass
// as the factors, so the evaluation pipeline downstream stays
// allocation-free at steady state. The random draw sequence is identical to
// Sample's: a seeded search produces the same mappings whichever entry point
// it uses. The caller must own m exclusively (clone before sharing across
// goroutines).
//
//ruby:hotpath
func (sm *Sampler) SampleInto(rng *rand.Rand, m *mapping.Mapping) {
	sm.sp.sampleInto(rng, m, sm.budget, sm.order, sm.dc)
}

// sampleInto is the sampling core behind Sample and Sampler.SampleInto:
// dimensions are drawn by id against the rule table, and each chain's
// cumulative tile row, each level's loop-order row and the bypass masks go
// straight into m's dense lowering. budget and order are caller-owned
// scratch, one entry per slot and per dimension.
//
//ruby:hotpath
func (s *Space) sampleInto(rng *rand.Rand, m *mapping.Mapping, budget, order []int, dc *divCache) {
	rt := &s.rt
	dn := m.RewriteDense(s.Work, s.Arch, s.slots)
	if m.Factors == nil {
		m.Factors = make(map[string][]int, len(s.dimNames))
	}
	copy(budget, rt.fanout)

	// Visit dimensions in random order so no dimension monopolizes fanout —
	// except dimensions with a required spatial allocation, which go first
	// (stably) so the fanout budget cannot be starved before they draw.
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if rt.reqFirst != nil {
		k := 0
		for i, di := range order {
			if !rt.reqFirst[di] {
				continue
			}
			copy(order[k+1:i+1], order[k:i])
			order[k] = di
			k++
		}
	}

	ns, valid := len(s.slots), true
	for _, di := range order {
		d := s.dimNames[di]
		fs := m.Factors[d]
		if len(fs) != ns {
			fs = make([]int, ns)
			m.Factors[d] = fs
		}
		bound := s.Work.Dims[di].Bound
		if a := rt.advanceOf(di); a > 0 {
			s.drawFusedChain(rng, di, a, budget, fs, dc)
			valid = dn.SetChainRowChecked(di, bound, fs) && valid
		} else {
			valid = s.drawOuter(rng, rt.flags[di*ns:di*ns+ns], ns, bound, budget, fs, dc) && valid
			dn.SetChainRow(di, bound, fs)
		}
	}

	nd, nl := len(s.dimNames), len(s.Arch.Levels)
	if len(m.Perms) != nl {
		m.Perms = make([][]string, nl)
	}
	for li := range m.Perms {
		row := dn.Perm[li*nd : li*nd+nd]
		for k := range row {
			row[k] = int16(k)
		}
		if !s.Cons.FixedPerms {
			rng.Shuffle(nd, func(i, j int) { row[i], row[j] = row[j], row[i] })
		}
		valid = dn.PermRowComplete(li) && valid
		p := m.Perms[li]
		if len(p) != nd {
			p = make([]string, nd)
			m.Perms[li] = p
		}
		for k, id := range row {
			p[k] = s.dimNames[id]
		}
	}

	if rt.keepable != nil {
		s.sampleBypass(rng, m, dn)
	} else {
		m.Keep = nil
	}
	if !valid {
		// Unreachable by construction; drop the lowering so Dense relowers
		// the fields and reports the fault.
		m.Invalidate()
	}
}

// sampleBypass randomly drops each role an explorable level stores, with
// probability 1/4, writing m.Keep (reusing its maps) and the dense keep
// masks.
//
//ruby:hotpath
func (s *Space) sampleBypass(rng *rand.Rand, m *mapping.Mapping, dn *mapping.Dense) {
	n := len(s.rt.keepable)
	if len(m.Keep) != n {
		m.Keep = make([]map[workload.Role]bool, n)
	}
	for li, roles := range s.rt.keepable {
		if roles == 0 {
			m.Keep[li] = nil
			continue
		}
		keep := m.Keep[li]
		if keep == nil {
			keep = make(map[workload.Role]bool, len(workload.Roles))
			m.Keep[li] = keep
		} else {
			clear(keep)
		}
		mask := roles
		for _, r := range workload.Roles {
			bit := mapping.RoleBit(r)
			if roles&bit == 0 {
				continue
			}
			keep[r] = true
			if rng.Intn(4) == 0 {
				keep[r] = false
				mask &^= bit
			}
		}
		dn.SetKeepMask(li, n, int8(mask))
	}
}

// drawChain draws dimension di's outermost-first factor chain into fs (one
// entry per slot, all overwritten), consuming from the shared spatial
// budget.
//
//ruby:hotpath
func (s *Space) drawChain(rng *rand.Rand, di int, budget, fs []int, dc *divCache) {
	if a := s.rt.advanceOf(di); a > 0 {
		s.drawFusedChain(rng, di, a, budget, fs, dc)
		return
	}
	ns := len(s.slots)
	s.drawOuter(rng, s.rt.flags[di*ns:di*ns+ns], ns, s.Work.Dims[di].Bound, budget, fs, dc)
}

// drawOuter draws slots hi-1 down to 1 (innermost-first) for residual r
// under one dimension's rule bits, charging spatial factors to the fanout
// budget, and lets the outermost temporal slot 0 absorb what remains. It
// also runs densify's structural checks on the residuals it walks — every
// factor in [1, residual], and a perfect slot dividing its residual exactly
// — and reports whether they pass. When r starts at the dimension's bound
// the walked residuals are then densify's ceiling residuals, and the
// absorbing factor leaves residual 1, so a pass means densify would accept
// the chain.
//
//ruby:hotpath
func (s *Space) drawOuter(rng *rand.Rand, flags []uint8, hi, r int, budget, fs []int, dc *divCache) bool {
	ok := true
	for i := hi - 1; i >= 1; i-- {
		fl := flags[i]
		f := s.drawFactor(rng, fl, r, budget[i], dc)
		fs[i] = f
		ok = ok && f >= 1 && f <= r
		if f == 1 { // leaves r as is (and r == 1 always draws 1)
			continue
		}
		if fl&ruleSpatial != 0 {
			budget[i] /= f
		}
		if fl&ruleImperfect != 0 {
			r = (r + f - 1) / f // factor.CeilDiv, inlined: r, f >= 1
		} else {
			q := r / f
			ok = ok && q*f == r
			r = q
		}
	}
	fs[0] = r
	return ok
}

// drawFactor draws one slot factor for residual r. Under ruleReqOuter the
// draw is capped so the residual stays above 1 (an outer slot still needs a
// share).
//
//ruby:hotpath
func (s *Space) drawFactor(rng *rand.Rand, fl uint8, r, budget int, dc *divCache) int {
	if r == 1 {
		return 1
	}
	max := r
	if fl&ruleReqOuter != 0 {
		max = r - 1 // any f < r leaves residual ceil(r/f) >= 2
	}
	if fl&ruleSpatial != 0 {
		if fl&ruleAllowed == 0 {
			return 1
		}
		if budget < max {
			max = budget
		}
	} else if c := s.Cons.MaxTemporalFactor; c > 0 && c < max {
		max = c
	}
	if max < 1 {
		max = 1
	}
	imperfect := fl&ruleImperfect != 0
	if fl&ruleRequired != 0 && max >= 2 {
		// Forced spatial allocation: draw from [2, max] (smallest divisor
		// >= 2 for perfect slots).
		if imperfect {
			return 2 + rng.Intn(max-1)
		}
		return s.divisorGE2LE(rng, r, max, dc)
	}
	if imperfect {
		// Mixture proposal over the imperfect factor set [1, max]. Every
		// value has nonzero probability (the mapspace's membership is
		// unchanged), but density concentrates where high-quality mappings
		// live: exact divisors (the PFM subset, so the superset property
		// pays off in practice) and the resource-saturating factor max
		// (Ruby-S's raison d'etre: filling the fanout despite remainders).
		switch rng.Intn(10) {
		case 0, 1, 2:
			return max
		case 3, 4, 5:
			return s.cappedDivisor(rng, r, max, dc)
		default:
			return 1 + rng.Intn(max)
		}
	}
	return s.cappedDivisor(rng, r, max, dc)
}

// SampleChain draws a fresh factor chain for one dimension against a full
// fanout budget. Used by local-search mutation operators; the joint fanout
// across dimensions is re-checked by the evaluator.
func (s *Space) SampleChain(rng *rand.Rand, d string) []int {
	budget := append([]int(nil), s.rt.fanout...)
	fs := make([]int, len(s.slots))
	s.drawChain(rng, int(s.Work.DimID(d)), budget, fs, nil)
	return fs
}

// SamplePerm draws a random loop order (or the canonical one under
// FixedPerms).
func (s *Space) SamplePerm(rng *rand.Rand) []string {
	p := append([]string(nil), s.Work.DimNames()...)
	if !s.Cons.FixedPerms {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return p
}

// divisorGE2LE draws a random divisor of r in [2, max], or 1 when none
// exists. The divisor list is sorted with 1 first, so the candidates are the
// cached list's [1, hi) window.
//
//ruby:hotpath
func (s *Space) divisorGE2LE(rng *rand.Rand, r, max int, dc *divCache) int {
	divs := s.divisorsFor(r, dc)
	hi := len(divs)
	for hi > 0 && divs[hi-1] > max {
		hi--
	}
	if hi <= 1 {
		return 1
	}
	return divs[1+rng.Intn(hi-1)]
}

// cappedDivisor draws a uniform random divisor of r not exceeding max
// (falling back to 1, which always divides).
//
//ruby:hotpath
func (s *Space) cappedDivisor(rng *rand.Rand, r, max int, dc *divCache) int {
	divs := s.divisorsFor(r, dc)
	hi := len(divs)
	for hi > 0 && divs[hi-1] > max {
		hi--
	}
	if hi == 0 {
		return 1
	}
	return divs[rng.Intn(hi)]
}
