// Package mapspace implements mapspace generation — the paper's central
// subject. A mapspace is the set of candidate mappings of one workload onto
// one architecture. Four formulations are provided:
//
//   - PFM: Timeloop's perfect index factorization (eq. 1) — every tiling
//     factor divides the residual dimension.
//   - Ruby: imperfect factorization everywhere (eq. 5) — any factor up to
//     the residual, with the final loop iteration handling a remainder tile.
//   - RubyS: imperfect factorization only at spatial (parFor) slots, the
//     paper's recommended trade-off between mapping quality and expansion.
//   - RubyT: imperfect factorization only at temporal slots.
//
// A Space supports random sampling (for Timeloop-style random search),
// exhaustive enumeration (for the toy studies), and exact counting of the
// per-dimension tiling choices (Table I).
package mapspace

import (
	"fmt"
	"sync"

	"ruby/internal/arch"
	"ruby/internal/factor"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Kind selects the factorization discipline.
type Kind uint8

const (
	// PFM is the perfect-factorization baseline mapspace.
	PFM Kind = iota
	// Ruby allows remainders at every slot.
	Ruby
	// RubyS allows remainders only at spatial slots.
	RubyS
	// RubyT allows remainders only at temporal slots.
	RubyT
)

var kindNames = map[Kind]string{PFM: "PFM", Ruby: "Ruby", RubyS: "Ruby-S", RubyT: "Ruby-T"}

// String returns the paper's name for the kind ("PFM", "Ruby", "Ruby-S",
// "Ruby-T").
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds lists all mapspace kinds in presentation order.
var Kinds = []Kind{PFM, Ruby, RubyS, RubyT}

// imperfectAt reports whether kind k relaxes divisibility at spatial slots.
func (k Kind) imperfectSpatial() bool { return k == Ruby || k == RubyS }

// imperfectTemporal reports whether kind k relaxes divisibility at temporal
// slots.
func (k Kind) imperfectTemporal() bool { return k == Ruby || k == RubyT }

// Constraints restricts a mapspace the way Timeloop constraint files do.
type Constraints struct {
	// SpatialX and SpatialY list the dimensions allowed to take factors > 1
	// on the corresponding array axis. nil allows every dimension.
	SpatialX []string
	SpatialY []string

	// FixedPerms locks every level's temporal loop order to the workload's
	// declaration order instead of sampling permutations. Used by the toy
	// studies where loop order is immaterial.
	FixedPerms bool

	// MaxTemporalFactor caps any single temporal factor (0 = uncapped).
	// Large caps keep random sampling inside plausible regions for huge
	// dimensions; the paper's studies do not need it.
	MaxTemporalFactor int

	// RequireSpatialX and RequireSpatialY force the listed dimensions to
	// take a spatial factor > 1 on the corresponding axis whenever the
	// dimension's residual and the axis budget allow it — the moral
	// equivalent of Timeloop constraint files pinning a dimension to an
	// array axis (e.g. true row-stationary keeps filter rows on the PE
	// rows). Enforced by the sampler; enumeration ignores it.
	RequireSpatialX []string
	RequireSpatialY []string

	// ExploreBypass lets the sampler also search storage-bypass choices
	// (ZigZag-style): each sampled mapping may skip storing a tensor at an
	// intermediate level the architecture would otherwise allow. The paper
	// fixes bypass per architecture (weights skip the Eyeriss GLB); this
	// option explores it.
	ExploreBypass bool

	// FuseTile constrains the listed dimensions for fused multi-layer
	// mapping: FuseTile[d] is the consumer's input-tile advance along d, and
	// every mapping in the space gives d a tile extent at FuseLevel that
	// divides it (a divisor-compatible refinement of the consumer's tile
	// chain), with the sub-FuseLevel chain factoring that extent perfectly so
	// fused tile boundaries stay aligned. Outside FuseLevel the dimension
	// tiles by the kind's usual rules over the ceil-divided residual — which
	// is where imperfect factorization pays off, since advances derived from
	// a consumer rarely divide the producer's bound. Dimensions not listed
	// are unconstrained. See FuseTileOf for deriving advances from an edge
	// binding.
	FuseTile map[string]int

	// FuseLevel is the architecture level whose tile the FuseTile constraint
	// pins — the shared on-chip level holding the fused intermediate. Values
	// < 1 default to level 1 (the first on-chip level). Ignored without
	// FuseTile.
	FuseLevel int
}

// required reports whether dim must take a spatial factor on the axis.
func (c Constraints) required(kind mapping.SlotKind, dim string) bool {
	var list []string
	switch kind {
	case mapping.SpatialX:
		list = c.RequireSpatialX
	case mapping.SpatialY:
		list = c.RequireSpatialY
	default:
		return false
	}
	for _, d := range list {
		if d == dim {
			return true
		}
	}
	return false
}

func (c Constraints) allowed(kind mapping.SlotKind, dim string) bool {
	var list []string
	switch kind {
	case mapping.SpatialX:
		list = c.SpatialX
	case mapping.SpatialY:
		list = c.SpatialY
	default:
		return true
	}
	if list == nil {
		return true
	}
	for _, d := range list {
		if d == dim {
			return true
		}
	}
	return false
}

// Space is a mapspace for one (workload, architecture, kind) triple. It is
// safe for concurrent use; samplers that draw in a tight loop should each
// hold a Sampler (NewSampler) for allocation-free in-place sampling.
type Space struct {
	Work *workload.Workload // the iteration space being tiled
	Arch *arch.Arch         // the hierarchy providing the slots
	Kind Kind               // the factorization discipline
	Cons Constraints        // dataflow-style restrictions

	slots    []mapping.Slot
	dimNames []string

	// fuseSlot is the slot index of FuseLevel's temporal slot when the space
	// is fused (Cons.FuseTile non-empty); -1 otherwise.
	fuseSlot int

	// rt is the sampling rule table, built once here and immutable after.
	rt rules

	// divCache memoizes factor.Divisors per dimension residual: random
	// sampling hits the same few residuals millions of times.
	//ruby:guards divCache
	divMu    sync.RWMutex
	divCache map[int][]int
}

// New builds a Space.
func New(w *workload.Workload, a *arch.Arch, kind Kind, cons Constraints) *Space {
	s := &Space{
		Work: w, Arch: a, Kind: kind, Cons: cons,
		slots:    mapping.Slots(a),
		dimNames: w.DimNames(),
		divCache: make(map[int][]int),
		fuseSlot: -1,
	}
	if len(cons.FuseTile) > 0 {
		lvl := cons.FuseLevel
		if lvl < 1 {
			lvl = 1
		}
		if lvl >= len(a.Levels) {
			lvl = len(a.Levels) - 1
		}
		s.fuseSlot = mapping.FirstSlotOfLevel(s.slots, lvl)
	}
	s.rt = s.buildRules()
	return s
}

// divisors returns the cached sorted divisor list of n.
func (s *Space) divisors(n int) []int {
	s.divMu.RLock()
	divs, ok := s.divCache[n]
	s.divMu.RUnlock()
	if ok {
		return divs
	}
	divs = factor.Divisors(n)
	s.divMu.Lock()
	s.divCache[n] = divs
	s.divMu.Unlock()
	return divs
}

// divCache is a per-goroutine, lock-free view of the space's divisor cache:
// a flat residual-indexed table for the residuals below divCacheCap, and a
// map, filled as they are drawn, for the few above it, fronted by the last
// one looked up (a dimension's bound is redrawn at every slot its chain
// leaves at 1). Samplers and mutators each own one, so the steady-state
// sampling loop replaces two atomic lock operations per factor draw with
// one slice load. Entries alias the shared cache's slices, which are
// immutable.
type divCache struct {
	byN   [][]int
	large map[int][]int
	lastN int
	last  []int
}

// divCacheCap bounds a divCache's table (4096 slice headers, about 98 KB),
// so no per-goroutine allocation scales with a dimension's value: residuals
// at or above it go to the map, which holds only the residuals that occur.
// ceil(B/k) takes about 2*sqrt(B) distinct values for a bound B, and only
// those for k < B/4096 exceed the cap. The table covers every residual of
// ResNet-50, MobileNetV2 and the Transformer suite.
const divCacheCap = 4096

// newDivCache sizes a divisor cache for the space's dimension bounds, up to
// divCacheCap.
func (s *Space) newDivCache() *divCache {
	n := 0
	for _, d := range s.Work.Dims {
		n = max(n, d.Bound+1)
	}
	return &divCache{byN: make([][]int, min(n, divCacheCap))}
}

// divisorsFor is divisors through the caller's private cache (nil falls back
// to the shared locked cache).
//
//ruby:hotpath
func (s *Space) divisorsFor(n int, dc *divCache) []int {
	if dc == nil {
		return s.divisors(n)
	}
	if n < len(dc.byN) {
		if d := dc.byN[n]; d != nil {
			return d
		}
		d := s.divisors(n)
		dc.byN[n] = d
		return d
	}
	if n == dc.lastN {
		return dc.last
	}
	d, ok := dc.large[n]
	if !ok {
		if dc.large == nil {
			dc.large = make(map[int][]int)
		}
		d = s.divisors(n)
		dc.large[n] = d
	}
	dc.lastN, dc.last = n, d
	return d
}

// Slots exposes the slot list the space maps over.
func (s *Space) Slots() []mapping.Slot { return s.slots }

// chainSlots returns, for dimension dim, the factor.ChainSlot list in
// innermost-first order, encoding the kind's divisibility rules, fanout caps
// and spatial-dimension constraints.
func (s *Space) chainSlots(dim string) []factor.ChainSlot {
	out := make([]factor.ChainSlot, len(s.slots))
	for i, sl := range s.slots {
		cs := factor.ChainSlot{Kind: factor.Perfect}
		if sl.Spatial() {
			if s.Kind.imperfectSpatial() {
				cs.Kind = factor.Imperfect
			}
			cs.Max = sl.Fanout
			if !s.Cons.allowed(sl.Kind, dim) {
				cs.Max = 1
			}
		} else {
			if s.Kind.imperfectTemporal() {
				cs.Kind = factor.Imperfect
			}
			if s.Cons.MaxTemporalFactor > 0 && sl.Level != 0 {
				cs.Max = s.Cons.MaxTemporalFactor
			}
		}
		// Innermost-first ordering.
		out[len(s.slots)-1-i] = cs
	}
	return out
}

// ChainCount returns the number of tiling-factor chains available to the
// named dimension (permutations and bypass choices excluded). This is the
// quantity tabulated per formulation in Table I. Fused dimensions count
// only their constrained chains.
func (s *Space) ChainCount(dim string) uint64 {
	if a, ok := s.fusedAdvance(dim); ok {
		return s.fusedChainCount(dim, a)
	}
	return factor.CountChains(s.Work.Bound(dim), s.chainSlots(dim))
}

// enumerateChains yields dimension d's chains innermost-first, routing fused
// dimensions through their constrained enumeration. Divisor lists come from
// the space's shared cache.
func (s *Space) enumerateChains(d string, yield func(fs []int) bool) {
	if a, ok := s.fusedAdvance(d); ok {
		s.enumerateFusedChains(d, a, yield)
		return
	}
	factor.EnumerateChains(s.Work.Bound(d), s.chainSlots(d), s.divisors, yield)
}

// AppendChains appends every tiling chain of dimension di (declaration
// order) to dst, each outermost-first (the Mapping.Factors layout) and
// flattened with stride len(Slots()), in the order EnumerateChains visits
// them, and returns the extended slice. Sized with CountChainsUpTo, dst
// never grows.
func (s *Space) AppendChains(dst []int, di int) []int {
	ns := len(s.slots)
	s.enumerateChains(s.dimNames[di], func(fs []int) bool {
		// fs is innermost-first; append outermost-first.
		for i := ns - 1; i >= 0; i-- {
			dst = append(dst, fs[i])
		}
		return true
	})
	return dst
}

// CountChainsUpTo returns min(ChainCount, limit) for dimension di
// (declaration order) by enumerating at most limit chains — a limit of
// cap+1 decides "at most cap chains" without counting a large chain space
// in full, and without ChainCount's memo table.
func (s *Space) CountChainsUpTo(di, limit int) int {
	n := 0
	s.enumerateChains(s.dimNames[di], func([]int) bool {
		n++
		return n < limit
	})
	return n
}

// EnumerateChains yields every tiling chain available to the named dimension
// (outermost-first, the Mapping.Factors layout), in the deterministic order
// the Enumerator visits them. The slice passed to yield is reused across
// calls; retain with a copy. Stopping early returns false from yield.
func (s *Space) EnumerateChains(d string, yield func(fs []int) bool) {
	rev := make([]int, len(s.slots))
	s.enumerateChains(d, func(fs []int) bool {
		// fs is innermost-first; present outermost-first.
		for i, f := range fs {
			rev[len(fs)-1-i] = f
		}
		return yield(rev)
	})
}

// TotalChainCount returns the product of ChainCount over all dimensions —
// the size of the tiling mapspace.
func (s *Space) TotalChainCount() uint64 {
	total := uint64(1)
	for _, d := range s.Work.Dims {
		total *= s.ChainCount(d.Name)
	}
	return total
}

// Enumerate yields every mapping in the tiling mapspace with canonical
// (declaration-order) permutations, stopping early if yield returns false.
// Feasible only for small workloads; the toy studies of Section III use it.
func (s *Space) Enumerate(yield func(*mapping.Mapping) bool) {
	en := s.NewEnumerator()
	for m := en.Next(); m != nil; m = en.Next() {
		if !yield(m) {
			return
		}
	}
}

// ChainRange is a half-open interval [Lo, Hi) of leading-dimension chain
// indices. Restricting an Enumerator to a ChainRange carves the enumeration
// into a contiguous shard: the ranges produced by Space.ShardLeading
// partition the full scan, so their union visits every mapping exactly once.
type ChainRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Empty reports whether the range selects no chains. The zero ChainRange is
// empty, which callers use as "no restriction".
func (r ChainRange) Empty() bool { return r.Hi <= r.Lo }

// LeadingDim returns the name of the enumeration's leading (most
// significant) dimension — the one a ChainRange restricts.
func (s *Space) LeadingDim() string { return s.Work.Dims[0].Name }

// ShardLeading splits the leading dimension's chain count into at most n
// balanced contiguous ranges (sizes differ by at most one, larger shards
// first). Fewer than n ranges are returned when the dimension has fewer
// chains than requested shards; n < 1 is treated as 1. The result is a
// partition of [0, ChainCount(LeadingDim())).
func (s *Space) ShardLeading(n int) []ChainRange {
	if n < 1 {
		n = 1
	}
	total := int(s.ChainCount(s.LeadingDim()))
	if total < 1 {
		total = 1
	}
	if n > total {
		n = total
	}
	out := make([]ChainRange, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		size := total / n
		if i < total%n {
			size++
		}
		out = append(out, ChainRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Enumerator steps through the tiling mapspace one mapping at a time, in the
// same deterministic order Enumerate visits. Unlike the callback form, its
// position (an odometer over per-dimension chain indices) can be read with
// Index and re-established with SetIndex — which is what lets the exhaustive
// searcher checkpoint mid-scan and resume without re-enumerating the prefix.
// RestrictLeading confines the scan to a leading-dimension chain range for
// sharded (distributed) enumeration.
type Enumerator struct {
	sp     *Space
	dims   []string
	perms  [][]string
	chains [][][]int // per dimension, outermost-first factor slices
	idx    []int
	done   bool

	// Leading-dimension restriction: the odometer's dim-0 digit runs over
	// [lo0, hi0) instead of [0, len(chains[0])).
	lo0, hi0 int
}

// NewEnumerator builds an enumerator positioned at the first mapping.
func (s *Space) NewEnumerator() *Enumerator {
	dims := s.Work.DimNames()
	ns := len(s.slots)
	chains := make([][][]int, len(dims))
	for di := range dims {
		// One flat buffer per dimension; each chain is a capacity-capped
		// window of it, so a caller appending to one cannot clobber the next.
		flat := s.AppendChains(nil, di)
		chains[di] = make([][]int, len(flat)/ns)
		for ci := range chains[di] {
			chains[di][ci] = flat[ci*ns : (ci+1)*ns : (ci+1)*ns]
		}
	}
	e := &Enumerator{
		sp:     s,
		dims:   dims,
		perms:  mapping.DefaultPerms(s.Work, s.Arch),
		chains: chains,
		idx:    make([]int, len(dims)),
	}
	e.hi0 = len(chains[0])
	return e
}

// RestrictLeading confines the enumeration to leading-dimension chain
// indices [lo, hi) and repositions the enumerator at the range's first
// mapping. The restricted scans produced by Space.ShardLeading's ranges
// visit, between them, exactly the mappings of the unrestricted scan, each
// once, preserving order within each shard. Restrict before stepping: any
// progress (Next calls or SetIndex) is discarded.
func (e *Enumerator) RestrictLeading(lo, hi int) error {
	n := len(e.chains[0])
	if lo < 0 || hi > n || lo >= hi {
		return fmt.Errorf("mapspace: leading chain range [%d, %d) invalid for %d chains", lo, hi, n)
	}
	e.lo0, e.hi0 = lo, hi
	for i := range e.idx {
		e.idx[i] = 0
	}
	e.idx[0] = lo
	e.done = false
	return nil
}

// Next returns the next mapping of the enumeration, or nil once exhausted.
// Every returned mapping is freshly allocated (its factor slices alias the
// enumerator's precomputed chains, which are never mutated), so callers may
// retain and batch them.
func (e *Enumerator) Next() *mapping.Mapping {
	if e.done {
		return nil
	}
	m := &mapping.Mapping{Factors: make(map[string][]int, len(e.dims)), Perms: e.perms}
	for di, d := range e.dims {
		m.Factors[d] = e.chains[di][e.idx[di]]
	}
	// Odometer increment. The leading digit runs over the (possibly
	// restricted) window [lo0, hi0).
	k := len(e.dims) - 1
	for k >= 0 {
		lim, reset := len(e.chains[k]), 0
		if k == 0 {
			lim, reset = e.hi0, e.lo0
		}
		e.idx[k]++
		if e.idx[k] < lim {
			break
		}
		e.idx[k] = reset
		k--
	}
	if k < 0 {
		e.done = true
	}
	return m
}

// Done reports whether the enumeration is exhausted.
func (e *Enumerator) Done() bool { return e.done }

// Index returns a copy of the enumerator's odometer position (the next
// mapping to be produced). Together with Done it fully describes the scan
// position for checkpointing.
func (e *Enumerator) Index() []int {
	return append([]int(nil), e.idx...)
}

// SetIndex repositions the enumerator at the given odometer state, as
// previously returned by Index. It returns an error when the index does not
// match the space's dimensions or chain counts (e.g. a checkpoint taken over
// a different workload).
func (e *Enumerator) SetIndex(idx []int, done bool) error {
	if len(idx) != len(e.chains) {
		return fmt.Errorf("mapspace: enumerator index has %d dims, space has %d", len(idx), len(e.chains))
	}
	for i, v := range idx {
		lo, hi := 0, len(e.chains[i])
		if i == 0 {
			lo, hi = e.lo0, e.hi0
		}
		if v < lo || v >= hi {
			return fmt.Errorf("mapspace: enumerator index[%d] = %d out of range [%d, %d)", i, v, lo, hi)
		}
	}
	copy(e.idx, idx)
	e.done = done
	return nil
}
