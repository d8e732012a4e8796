package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
)

// Guided tuning knobs. They are compile-time constants, not Options: the
// searcher's value is converging in thousands of evaluations without
// per-problem tuning, and the determinism contract (kill-and-resume
// bit-identical) is easiest to keep when the sweep shape is fixed.
const (
	// Chain candidates per sweep for the dims the attribution ranks first,
	// mid-table and last. Spending draws where the model says the cost lives
	// is the point of the guided scan.
	guidedHeadCands = 10
	guidedMidCands  = 5
	guidedTailCands = 3
	// Dimensions whose whole chain space is at most this large are scanned
	// exhaustively per sweep (exact coordinate descent, FactorFlow-style)
	// instead of by random candidate draws. The lists are precomputed at
	// construction by one enumeration capped at guidedExactChainCap+1
	// chains, so the scan itself stays allocation-free.
	guidedExactChainCap = 256
	// Loop-order candidates per level per sweep (skipped under FixedPerms,
	// where the only legal order is the canonical one).
	guidedPermCands = 2
	// Random fallback samples per Step while looking for a valid foothold
	// when the constructive seed is invalid.
	guidedSeedBatch = 64
	// Spatial-assignment seeds are enumerated exhaustively while the number
	// of injective dim-to-parFor assignments stays at most this large;
	// beyond it the seeding turns greedy (one slot at a time).
	guidedSeedAssignCap = 64
	// Kick strength: random moves committed onto the incumbent at each
	// restart, cycling from 2 up to guidedPerturbMax as restarts keep
	// failing (basin hopping — short kicks explore the near basin, long
	// kicks jump out of it).
	guidedPerturbMin = 2
	guidedPerturbMax = 5
	// Every guidedDiversifyEvery-th stale restart abandons the incumbent's
	// basin entirely and descends from a fresh random sample instead.
	guidedDiversifyEvery = 3
	// Consecutive restarts without a new global best before the search
	// concludes the space is exhausted around the incumbent and stops.
	guidedStalePatience = 8
)

// Phases of the guided search, persisted in snapshots.
const (
	guidedPhaseSeed  = "seed"
	guidedPhaseSweep = "sweep"
)

// Kinds of scan winner, used to replay the winning proposal.
const (
	guidedKindChain = iota
	guidedKindChainExact
	guidedKindPerm
	guidedKindKeep
)

// guidedWinner remembers the best improving proposal of one sweep: what to
// re-propose (kind plus its dim/level/pair argument, and for exact chain
// scans the chain index) and the RNG state to rewind to so a drawn
// re-proposal reproduces the scanned candidate draw for draw.
type guidedWinner struct {
	kind int
	arg  int
	arg2 int
	val  float64
	pre  checkpoint.RNG
}

// GuidedSearcher is the model-guided greedy mapper (FactorFlow-style): a
// three-phase optimizer that uses the cost model's own attribution
// (nest.Plan.Attribute) to decide where to search next, converging in
// thousands of evaluations where the stochastic searchers need hundreds of
// thousands.
//
// Phase 1 (constructive seed) starts from the trivially valid mapping that
// parks every loop at DRAM (mapping.Uniform level 0 — tiles below are
// single elements, so capacity can only pass), then enumerates
// spatially-saturating variants of it — every injective assignment of
// workload dims to parFor slots, each assigned dim spatialized by its
// largest divisor fitting the fanout. Which dims own the array is the most
// coupled choice in the space (single-dim descent cannot swap two dims
// across a saturated fanout), so it is decided up front by construction.
// When an exotic architecture rejects every constructive seed, the phase
// falls back to random sampling. Phase 2 (greedy descent) repeatedly sweeps
// the move neighborhood in groups: the cost attribution ranks the workload
// dims by how much energy-latency their loops account for, each dim group
// scans chain candidates (exactly when the dim's chain space is small,
// by random draws otherwise, spending more draws on the expensive dims),
// then loop-order groups per level and every bypass toggle; each group's
// best improving proposal is committed before the next group is scanned.
// A fully stalled sweep gets one spatial rescue before restarting: coupled
// two-dim splits of each spatial slot's fanout, the one neighborhood the
// single-dim move vocabulary cannot reach.
// Phase 3 (perturbation restart) fires when a sweep finds no improving
// move: the incumbent is re-seeded and a few random moves are committed
// onto it to escape the local optimum (every guidedDiversifyEvery-th stale
// restart instead descends from the best of a fresh random batch); after
// guidedStalePatience consecutive restarts without a new global best the
// search stops.
//
// All draws come from one serializable RNG consumed in a fixed serial order,
// and one Step is one atomic unit (a seed attempt, one full sweep, or one
// restart), so interrupt/resume is bit-identical to an uninterrupted run.
// The working mapping diverges from the incumbent after a perturbation, so
// snapshots persist both.
type GuidedSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	rng *checkpoint.RNG
	rnd *rand.Rand
	wk  *engine.Worker
	smp *mapspace.Sampler // built on the first random batch (see sampler)
	mut *mapspace.Mutator
	dw  *engine.Delta
	bd  *nest.Breakdown
	m   *mapping.Mapping // reused fallback-sample buffer
	gm  engine.GuidedMetrics

	// seedM is the reused constructive-seed mapping (see resetSeed);
	// dramSlot is the DRAM temporal slot the all-at-DRAM seed fills;
	// seedAssign/seedUsed are the spatial seeds' dim-to-slot bookkeeping.
	seedM      *mapping.Mapping
	dramSlot   int
	seedAssign []int
	seedUsed   []bool

	cur        *mapping.Mapping // working mapping, mutated in place
	curVal     float64          // objective value of cur
	sweepReady bool             // dw seeded with cur

	// Sweep scratch: dim ranking, the winning proposal, and — for dims with
	// small chain spaces — the precomputed full chain list scanned exactly.
	dimScore    []float64
	dimOrder    []int
	dimNames    []string
	nslots      int
	exactChains [][]int // per dim, flat with stride nslots; nil selects random candidate draws
	spatialIdx  []int   // spatial slot indices, widest fanout first
	rowFS       [][]int // rescue scratch: per dim, cur's factor slice
	win         guidedWinner
	winFound    bool

	res       *Result
	phase     string
	seeded    bool // constructive seed attempted (snapshot: Warmed)
	restarts  int64
	sinceBest int64
	done      bool
	start     time.Time
}

// NewGuided builds a resumable model-guided search. opt.Threads is ignored
// (the scan is serial by design — its determinism is the point) and
// opt.ConsecutiveNoImprove does not apply: termination is
// guidedStalePatience restarts without improvement, or opt.MaxEvaluations.
func NewGuided(sp *mapspace.Space, eng *engine.Engine, opt Options) *GuidedSearcher {
	opt = opt.withDefaults()
	requireSharedContext(sp, eng)
	s := &GuidedSearcher{
		sp: sp, eng: eng, opt: opt,
		rng: checkpoint.NewRNG(opt.Seed),
		wk:  eng.NewWorker(), mut: sp.NewMutator(), dw: eng.NewDelta(),
		res: &Result{}, phase: guidedPhaseSeed, start: time.Now(),
	}
	s.rnd = rand.New(s.rng)
	s.bd = s.dw.NewBreakdown()
	s.gm, _ = eng.Metrics().(engine.GuidedMetrics)
	nd := s.mut.NumDims()
	s.dimScore = make([]float64, nd)
	s.dimOrder = make([]int, nd)
	s.dimNames = sp.Work.DimNames()
	s.nslots = len(sp.Slots())
	s.dramSlot = mapping.FirstSlotOfLevel(sp.Slots(), 0)
	s.rowFS = make([][]int, nd)
	// A capped enumeration decides which dims are scanned exactly (reaching
	// one chain past the cap means the chain space is too big); the kept
	// lists are then enumerated into one exactly-sized flat buffer each.
	s.exactChains = make([][]int, nd)
	for di := range s.dimNames {
		if n := sp.CountChainsUpTo(di, guidedExactChainCap+1); n <= guidedExactChainCap {
			s.exactChains[di] = sp.AppendChains(make([]int, 0, n*s.nslots), di)
		}
	}
	for _, sl := range sp.Slots() {
		if sl.Spatial() {
			s.spatialIdx = append(s.spatialIdx, sl.Index)
		}
	}
	slots := sp.Slots()
	for i := 1; i < len(s.spatialIdx); i++ {
		si := s.spatialIdx[i]
		j := i - 1
		for ; j >= 0 && slots[s.spatialIdx[j]].Fanout < slots[si].Fanout; j-- {
			s.spatialIdx[j+1] = s.spatialIdx[j]
		}
		s.spatialIdx[j+1] = si
	}
	s.seedAssign, s.seedUsed = make([]int, len(s.spatialIdx)), make([]bool, nd)
	return s
}

// exactChain returns chain ci of dim d's precomputed exact list.
//
//ruby:hotpath
func (s *GuidedSearcher) exactChain(d, ci int) []int {
	return s.exactChains[d][ci*s.nslots : (ci+1)*s.nslots]
}

// sampler returns the searcher's random sampler and fallback-sample buffer,
// building them on first use: only the invalid-seed fallback and the
// diversification restarts draw random samples, and most guided searches
// reach neither, so the sampler's residual-indexed divisor table is not
// paid for up front.
func (s *GuidedSearcher) sampler() (*mapspace.Sampler, *mapping.Mapping) {
	if s.smp == nil {
		s.smp, s.m = s.sp.NewSampler(), &mapping.Mapping{}
	}
	return s.smp, s.m
}

// Guided runs the model-guided greedy mapper to completion and returns the
// best mapping found. See GuidedSearcher for the algorithm; this is the
// one-shot entry point matching Random and friends.
func Guided(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	ctx, span := obs.StartSpan(ctx, "search:guided")
	defer span.End()
	s := NewGuided(sp, eng, opt)
	for {
		done, err := s.Step(ctx)
		if done || err != nil {
			return s.Result()
		}
	}
}

// Result returns the result so far.
func (s *GuidedSearcher) Result() *Result { return s.res }

// budgetLeft mirrors the other searchers' evaluation-budget check.
func (s *GuidedSearcher) budgetLeft() bool {
	return s.opt.MaxEvaluations <= 0 || s.res.Evaluated < s.opt.MaxEvaluations
}

// considerBest adopts (m, c) as the global incumbent when it improves it.
func (s *GuidedSearcher) considerBest(m *mapping.Mapping, c *nest.Cost, met engine.Metrics) {
	v := s.opt.Objective.Value(c)
	if s.res.Best != nil && v >= s.opt.Objective.Value(&s.res.BestCost) {
		return
	}
	s.res.Best = m.Clone()
	s.res.BestCost = c.Clone()
	s.sinceBest = 0
	s.res.Trace = append(s.res.Trace, TracePoint{Evals: s.res.Evaluated, Value: v})
	met.Improvement(s.res.Evaluated, v)
}

// Step performs one atomic unit of guided search: a seed attempt (phase 1),
// one full steepest-descent sweep plus — when the sweep stalls — one
// perturbation restart (phases 2+3). Cancellation is honored between Steps;
// a single sweep is bounded (a few dozen delta evaluations), so latency
// stays comparable to the batch searchers without any rollback machinery.
func (s *GuidedSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	met := s.eng.Metrics()
	if s.phase == guidedPhaseSeed {
		return s.stepSeed(met)
	}
	return s.stepSweep(met)
}

// stepSeed establishes a valid incumbent: the warm start if given, then the
// constructive all-at-DRAM mapping, then batches of random samples.
func (s *GuidedSearcher) stepSeed(met engine.Metrics) (bool, error) {
	if !s.seeded {
		s.seeded = true
		if s.opt.WarmStart != nil {
			// Uncounted, matching the other searchers' warm-start handling.
			if c := s.eng.Evaluate(s.opt.WarmStart); c.Valid {
				s.res.Best = s.opt.WarmStart.Clone()
				s.res.BestCost = c.Clone()
				s.res.Trace = append(s.res.Trace, TracePoint{Evals: 0, Value: s.opt.Objective.Value(&c)})
			}
		}
		s.evalSeed(s.resetSeed(), met)
		s.spatialSeeds(met)
		if s.res.Best != nil {
			s.enterSweep()
			return false, nil
		}
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		return false, nil
	}
	// The constructive seed was invalid for this space (constraints, exotic
	// fanout): fall back to random sampling for a foothold.
	smp, m := s.sampler()
	for i := 0; i < guidedSeedBatch; i++ {
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		s.res.Evaluated++
		smp.SampleInto(s.rnd, m)
		c := s.wk.EvaluateShared(m)
		if c.Valid {
			s.res.Valid++
			s.considerBest(m, &c, met)
			s.enterSweep()
			return false, nil
		}
	}
	return false, nil
}

// spatialSeeds evaluates the spatially-saturating constructive seeds: every
// injective assignment of workload dims to parFor slots (greedy, one slot at
// a time, when there are too many), each assigned dim spatialized by its
// largest divisor fitting the slot's fanout and the remainder left at DRAM.
// Which dims own the array is the most coupled choice in the mapspace —
// swapping two dims across a saturated fanout needs two simultaneous chain
// moves the descent cannot make — so it is settled here by construction.
// Draw-free and deterministic; every evaluation is counted.
//
// Every seed is built in the searcher's reused seed mapping and priced on
// the worker's shared scratch, and the assignment bookkeeping is searcher
// scratch, so the pass allocates nothing beyond the clone of an improving
// seed.
//
//ruby:hotpath
func (s *GuidedSearcher) spatialSeeds(met engine.Metrics) {
	ns, nd := len(s.spatialIdx), len(s.dimNames)
	if ns == 0 {
		return
	}
	assign, used := s.seedAssign, s.seedUsed
	clear(used)
	count := 1
	for k := 0; k < ns && k < nd; k++ {
		count *= nd - k
		if count > guidedSeedAssignCap {
			break
		}
	}
	if count <= guidedSeedAssignCap {
		s.enumSpatialSeeds(assign, used, 0, met)
		return
	}
	// Greedy: fill the widest fanout first, keeping the dim whose seed
	// evaluates best given the slots already assigned.
	for k := range assign {
		assign[k] = -1
	}
	bestSoFar := math.Inf(1)
	for k := 0; k < ns; k++ {
		bestDim := -1
		for di := 0; di < nd; di++ {
			if used[di] {
				continue
			}
			assign[k] = di
			if v, ok := s.evalSeed(s.buildSpatialSeed(assign), met); ok && v < bestSoFar {
				bestSoFar, bestDim = v, di
			}
			if !s.budgetLeft() {
				return
			}
		}
		assign[k] = bestDim
		if bestDim >= 0 {
			used[bestDim] = true
		}
	}
}

// enumSpatialSeeds recursively evaluates every injective assignment of dims
// to the spatial slots from position k on.
//
//ruby:hotpath
func (s *GuidedSearcher) enumSpatialSeeds(assign []int, used []bool, k int, met engine.Metrics) {
	if k == len(assign) {
		s.evalSeed(s.buildSpatialSeed(assign), met)
		return
	}
	any := false
	for di := range used {
		if used[di] {
			continue
		}
		if !s.budgetLeft() {
			return
		}
		any = true
		assign[k], used[di] = di, true
		s.enumSpatialSeeds(assign, used, k+1, met)
		used[di] = false
	}
	if !any {
		// More spatial slots than dims: leave the narrower ones empty.
		for i := k; i < len(assign); i++ {
			assign[i] = -1
		}
		s.evalSeed(s.buildSpatialSeed(assign), met)
	}
}

// resetSeed returns the searcher's seed mapping reset to the all-at-DRAM
// mapping (mapping.Uniform level 0) with its lowering dropped, so the next
// evaluation relowers it into the recycled dense storage. Only the factors
// change between seeds: the loop orders stay canonical and Keep stays nil.
//
//ruby:hotpath
func (s *GuidedSearcher) resetSeed() *mapping.Mapping {
	m := s.seedM
	if m == nil {
		m = mapping.Uniform(s.sp.Work, s.sp.Arch, 0) // once per search; reset in place after
		s.seedM = m
		return m
	}
	for di := range s.sp.Work.Dims {
		d := &s.sp.Work.Dims[di]
		fs := m.Factors[d.Name]
		for i := range fs {
			fs[i] = 1
		}
		fs[s.dramSlot] = d.Bound
	}
	m.Invalidate()
	return m
}

// buildSpatialSeed constructs, in the reused seed mapping, the all-at-DRAM
// mapping with assign's dims spatialized: assign[k] is the dim occupying
// spatial slot s.spatialIdx[k] (-1 leaves it empty), factored by its
// largest divisor fitting the fanout.
//
//ruby:hotpath
func (s *GuidedSearcher) buildSpatialSeed(assign []int) *mapping.Mapping {
	m := s.resetSeed()
	slots := s.sp.Slots()
	for k, di := range assign {
		if di < 0 {
			continue
		}
		d := s.dimNames[di]
		b := s.sp.Work.Bound(d)
		f := largestDivisorAtMost(b, slots[s.spatialIdx[k]].Fanout)
		if f <= 1 {
			continue
		}
		fs := m.Factors[d]
		fs[0] = b / f
		fs[s.spatialIdx[k]] = f
	}
	return m
}

// evalSeed scores one constructive seed (counted) on the worker's shared
// scratch, feeding the incumbent (which clones what it keeps).
//
//ruby:hotpath
func (s *GuidedSearcher) evalSeed(m *mapping.Mapping, met engine.Metrics) (float64, bool) {
	if !s.budgetLeft() {
		return 0, false
	}
	s.res.Evaluated++
	c := s.wk.EvaluateShared(m)
	if !c.Valid {
		return 0, false
	}
	s.res.Valid++
	s.considerBest(m, &c, met)
	return s.opt.Objective.Value(&c), true
}

// largestDivisorAtMost returns the largest divisor of n not exceeding lim
// (at least 1).
func largestDivisorAtMost(n, lim int) int {
	if lim > n {
		lim = n
	}
	for f := lim; f > 1; f-- {
		if n%f == 0 {
			return f
		}
	}
	return 1
}

// enterSweep transitions to the greedy phase, starting from the incumbent.
func (s *GuidedSearcher) enterSweep() {
	s.phase = guidedPhaseSweep
	s.cur, s.sweepReady = nil, false
}

// stepSweep runs one steepest-descent sweep and, when it stalls, one
// perturbation restart.
func (s *GuidedSearcher) stepSweep(met engine.Metrics) (bool, error) {
	if !s.sweepReady {
		// Lazy (re-)seeding of the delta session (process-local state, not
		// checkpoint state): uncounted and draw-free, so resumed and
		// uninterrupted runs stay bit-identical.
		if s.cur == nil {
			s.cur = s.res.Best.Clone()
		}
		c := s.dw.Seed(s.cur)
		if !c.Valid {
			return false, errors.New("search: guided working mapping no longer validates")
		}
		s.curVal = s.opt.Objective.Value(&c)
		s.sweepReady = true
	}
	if !s.budgetLeft() {
		return s.finish(met), nil
	}
	improved, spent, err := s.scan(met)
	if err != nil {
		return false, err
	}
	if spent {
		return s.finish(met), nil
	}
	if improved {
		return false, nil
	}
	ok, spent, err := s.spatialRescue(met)
	if err != nil {
		return false, err
	}
	if spent {
		return s.finish(met), nil
	}
	if ok {
		return false, nil
	}
	return s.restart(met)
}

// spatialRescue breaks pairwise coupling at saturated parFor slots. A stalled
// sweep means no single-dim chain move improves the working mapping — but at
// a full fanout, handing capacity from one dim to another needs two
// simultaneous chain moves (shrinking one dim's parFor factor alone wastes
// the array, growing the other's alone overflows it), which the coordinate
// descent cannot make. This rescue enumerates, for every spatial slot and
// every dim pair, the divisor splits (fa, fb) of the slot's fanout budget,
// patching both chains at once (the displaced iterations return to DRAM) and
// evaluating the joint candidate in full. The best improving candidate
// becomes the working mapping and descent continues; draw-free, every
// evaluation counted. Runs only when a sweep stalls.
//
// Candidates are priced in place: both chains of the working mapping and
// their rows of its memoized dense lowering are patched, evaluated on the
// worker's scratch and restored, and only the winner's (slot, pair,
// factors) is kept and applied once at the end. When the budget runs out
// mid-rescue the working mapping is left as it was.
//
//ruby:hotpath
func (s *GuidedSearcher) spatialRescue(met engine.Metrics) (bool, bool, error) {
	w := s.sp.Work
	dn, err := s.cur.Dense(w, s.sp.Arch, s.sp.Slots())
	if err != nil {
		return false, false, fmt.Errorf("search: guided working mapping does not lower: %w", err)
	}
	for di, d := range s.dimNames {
		s.rowFS[di] = s.cur.Factors[d]
	}
	found := false
	var winSI, winA, winB, winFA, winFB int
	bestV := s.curVal
	slots := s.sp.Slots()
	nd := len(s.dimNames)
	for _, si := range s.spatialIdx {
		fanout := slots[si].Fanout
		for a := 0; a < nd; a++ {
			for b := a + 1; b < nd; b++ {
				others := 1
				for di := 0; di < nd; di++ {
					if di != a && di != b {
						others *= s.rowFS[di][si]
					}
				}
				if others > fanout {
					continue
				}
				budget := fanout / others
				fsA, fsB := s.rowFS[a], s.rowFS[b]
				restA, restB := chainRest(fsA, si), chainRest(fsB, si)
				ba, bb := w.Dims[a].Bound, w.Dims[b].Bound
				if restA <= 0 || restB <= 0 || ba%restA != 0 || bb%restB != 0 {
					// The pair's chains are imperfect outside this slot; the
					// rescue only rebuilds perfect splits.
					continue
				}
				maxA, maxB := ba/restA, bb/restB
				curA0, curA, curB0, curB := fsA[0], fsA[si], fsB[0], fsB[si]
				for fa := 1; fa <= maxA && fa <= budget; fa++ {
					if maxA%fa != 0 {
						continue
					}
					for fb := 1; fb <= maxB && fa*fb <= budget; fb++ {
						if maxB%fb != 0 || (fa == curA && fb == curB) {
							continue
						}
						if !s.budgetLeft() {
							return found, true, nil
						}
						fsA[si], fsA[0] = fa, maxA/fa
						fsB[si], fsB[0] = fb, maxB/fb
						v, ok := s.evalPatched(dn, a, b, met)
						fsA[si], fsA[0] = curA, curA0
						fsB[si], fsB[0] = curB, curB0
						dn.SetChainRow(a, ba, fsA)
						dn.SetChainRow(b, bb, fsB)
						if ok && v < bestV {
							found, bestV = true, v
							winSI, winA, winB, winFA, winFB = si, a, b, fa, fb
						}
					}
				}
			}
		}
	}
	if !found {
		return false, false, nil
	}
	fsA, fsB := s.rowFS[winA], s.rowFS[winB]
	ba, bb := w.Dims[winA].Bound, w.Dims[winB].Bound
	maxA, maxB := ba/chainRest(fsA, winSI), bb/chainRest(fsB, winSI)
	fsA[winSI], fsA[0] = winFA, maxA/winFA
	fsB[winSI], fsB[0] = winFB, maxB/winFB
	dn.SetChainRow(winA, ba, fsA)
	dn.SetChainRow(winB, bb, fsB)
	c := s.dw.Seed(s.cur)
	if !c.Valid {
		return false, false, errors.New("search: guided rescue mapping no longer validates")
	}
	s.curVal = s.opt.Objective.Value(&c)
	return true, false, nil
}

// evalPatched scores the working mapping after the rescue patched the
// factor chains of dims a and b (counted), relowering just those two rows
// of its dense form dn under densify's structural checks. A structurally
// faulty candidate counts as an invalid evaluation without reaching the
// kernel. An improving candidate is cloned into the incumbent while the
// patch is still in place.
//
//ruby:hotpath
func (s *GuidedSearcher) evalPatched(dn *mapping.Dense, a, b int, met engine.Metrics) (float64, bool) {
	w := s.sp.Work
	okA := dn.SetChainRowChecked(a, w.Dims[a].Bound, s.rowFS[a])
	okB := dn.SetChainRowChecked(b, w.Dims[b].Bound, s.rowFS[b])
	if !okA || !okB {
		s.res.Evaluated++
		met.Evaluation(false)
		return 0, false
	}
	return s.evalSeed(s.cur, met)
}

// chainRest is the product of a chain's factors outside the DRAM slot (0)
// and slot si — the part of the dim's tiling the spatial rescue preserves.
func chainRest(fs []int, si int) int {
	rest := 1
	for j := 1; j < len(fs); j++ {
		if j != si {
			rest *= fs[j]
		}
	}
	return rest
}

// scan is the guided inner loop: one greedy coordinate-descent sweep over
// the move neighborhood of the working mapping, scored by the delta kernel.
// The neighborhood is visited in groups — one group per workload dim (its
// chain candidates), per level (its loop-order candidates) and per bypass
// pair — and each group's best improving proposal is committed immediately
// before the next group is scanned, so one sweep can improve every
// coordinate. Candidates are rejected and undone during the group scan; the
// commit replays the recorded winner. Returns whether any group improved and
// whether the evaluation budget ran out mid-sweep.
//
// Steady-state allocation-free: the ranking scratch, the winner record, the
// precomputed chain lists and the Mutator's move are all preallocated, and
// sorting is a hand-rolled insertion sort (sort.Slice would box its
// arguments).
//
//ruby:hotpath
func (s *GuidedSearcher) scan(met engine.Metrics) (bool, bool, error) {
	improved := false

	// Rank dims by attributed cost: the energy charged to tensors each dim
	// indexes, weighted by the dim's latency factor. The expensive dims are
	// scanned first (their chains move the most cost) and get the most
	// random candidates when their chain space is too big to scan exactly.
	s.dw.Attribute(s.bd)
	nd := len(s.dimOrder)
	for d := 0; d < nd; d++ {
		cyc := s.bd.DimCycles[d]
		if cyc < 1 {
			cyc = 1
		}
		s.dimScore[d] = s.bd.DimEnergyPJ[d] * cyc
		s.dimOrder[d] = d
	}
	for i := 1; i < nd; i++ {
		d := s.dimOrder[i]
		sc := s.dimScore[d]
		j := i - 1
		for ; j >= 0 && s.dimScore[s.dimOrder[j]] < sc; j-- {
			s.dimOrder[j+1] = s.dimOrder[j]
		}
		s.dimOrder[j+1] = d
	}

	// Tiling-chain groups. Dims with a small chain space are scanned
	// exactly (every chain, no draws — the per-dim commit is the true
	// coordinate optimum); large ones get random candidate draws.
	for i := 0; i < nd; i++ {
		d := s.dimOrder[i]
		s.winFound = false
		best := s.curVal
		if chains := s.exactChains[d]; chains != nil {
			curChain := s.cur.Factors[s.dimNames[d]]
			for ci, n := 0, len(chains)/s.nslots; ci < n; ci++ {
				chain := s.exactChain(d, ci)
				if sameChain(chain, curChain) {
					continue
				}
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposeChainSet(d, chain)
				s.tryCandidate(mv, guidedKindChainExact, d, ci, pre, &best, met)
			}
		} else {
			k := guidedTailCands
			if i < 2 {
				k = guidedHeadCands
			} else if i < 4 {
				k = guidedMidCands
			}
			for j := 0; j < k; j++ {
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposeChainID(s.rnd, d)
				s.tryCandidate(mv, guidedKindChain, d, 0, pre, &best, met)
			}
		}
		ok, spent, err := s.commitGroup(met)
		if spent || err != nil {
			return improved, spent, err
		}
		improved = improved || ok
	}

	// Loop-order groups per level. Under FixedPerms the canonical order is
	// the only legal one, so there is nothing to scan.
	if !s.sp.Cons.FixedPerms {
		for li := 0; li < len(s.sp.Arch.Levels); li++ {
			s.winFound = false
			best := s.curVal
			for j := 0; j < guidedPermCands; j++ {
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposePerm(s.rnd, li)
				s.tryCandidate(mv, guidedKindPerm, li, 0, pre, &best, met)
			}
			ok, spent, err := s.commitGroup(met)
			if spent || err != nil {
				return improved, spent, err
			}
			improved = improved || ok
		}
	}

	// Every togglable bypass pair, systematically (draw-free).
	for k := 0; k < s.mut.NumBypass(); k++ {
		s.winFound = false
		best := s.curVal
		if !s.budgetLeft() {
			return improved, true, nil
		}
		pre := *s.rng
		mv := s.mut.ProposeKeepAt(k)
		s.tryCandidate(mv, guidedKindKeep, k, 0, pre, &best, met)
		ok, spent, err := s.commitGroup(met)
		if spent || err != nil {
			return improved, spent, err
		}
		improved = improved || ok
	}
	return improved, false, nil
}

// commitGroup commits the group winner recorded in s.win, if any. Returns
// (committed, budget-spent, error).
func (s *GuidedSearcher) commitGroup(met engine.Metrics) (bool, bool, error) {
	if !s.winFound {
		return false, false, nil
	}
	if !s.budgetLeft() {
		return false, true, nil
	}
	if err := s.commitWinner(met); err != nil {
		return false, false, err
	}
	return true, false, nil
}

// sameChain reports whether the candidate chain equals the mapping's current
// one (a no-op proposal the exact scan skips).
//
//ruby:hotpath
func sameChain(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tryCandidate scores one proposal against the working mapping and rolls it
// back, recording it as the sweep winner when it beats the best value seen
// so far this sweep. A candidate that also beats the global incumbent is
// adopted immediately (cloned before the rollback), so budget exhaustion
// never loses an already-paid-for improvement.
//
//ruby:hotpath
func (s *GuidedSearcher) tryCandidate(mv *mapspace.Move, kind, arg, arg2 int, pre checkpoint.RNG, best *float64, met engine.Metrics) {
	mv.Apply(s.cur)
	s.res.Evaluated++
	c := s.dw.Evaluate(mv.Delta())
	if c.Valid {
		s.res.Valid++
		if v := s.opt.Objective.Value(&c); v < *best {
			*best = v
			s.winFound = true
			s.win = guidedWinner{kind: kind, arg: arg, arg2: arg2, val: v, pre: pre}
			s.considerBest(s.cur, &c, met)
		}
	}
	s.dw.Reject()
	mv.Undo(s.cur)
}

// commitWinner rewinds the RNG to the winning proposal's pre-state,
// re-proposes it (identical draws reproduce the identical move), and commits
// it onto the working mapping.
func (s *GuidedSearcher) commitWinner(met engine.Metrics) error {
	*s.rng = s.win.pre
	var mv *mapspace.Move
	switch s.win.kind {
	case guidedKindChain:
		mv = s.mut.ProposeChainID(s.rnd, s.win.arg)
	case guidedKindChainExact:
		mv = s.mut.ProposeChainSet(s.win.arg, s.exactChain(s.win.arg, s.win.arg2))
	case guidedKindPerm:
		mv = s.mut.ProposePerm(s.rnd, s.win.arg)
	default:
		mv = s.mut.ProposeKeepAt(s.win.arg)
	}
	mv.Apply(s.cur)
	s.res.Evaluated++
	c := s.dw.Evaluate(mv.Delta())
	v := s.opt.Objective.Value(&c)
	if !c.Valid || v >= s.curVal {
		s.dw.Reject()
		mv.Undo(s.cur)
		return fmt.Errorf("search: guided winner replay diverged (valid=%v value=%v, scanned %v)",
			c.Valid, v, s.win.val)
	}
	s.res.Valid++
	s.dw.Commit()
	s.curVal = v
	if s.gm != nil {
		s.gm.GuidedMove()
	}
	s.considerBest(s.cur, &c, met)
	return nil
}

// restart is the perturbation phase: the sweep found no improving move, so
// the working mapping is a local optimum. Re-seed from the incumbent and
// commit a few random moves onto it (accepting them even when they are
// worse — that is the escape), then let the next sweep descend again.
func (s *GuidedSearcher) restart(met engine.Metrics) (bool, error) {
	s.restarts++
	s.sinceBest++
	if s.gm != nil {
		s.gm.GuidedRestart()
	}
	if s.sinceBest >= guidedStalePatience || !s.budgetLeft() {
		return s.finish(met), nil
	}
	if s.sinceBest%guidedDiversifyEvery == 0 {
		// Diversification: descend from the best of a batch of fresh random
		// samples (GRASP-style) instead of kicking the incumbent's basin yet
		// again.
		var bestM *mapping.Mapping
		var bestV float64
		smp, m := s.sampler()
		for i := 0; i < guidedSeedBatch; i++ {
			if !s.budgetLeft() {
				break
			}
			s.res.Evaluated++
			smp.SampleInto(s.rnd, m)
			c := s.wk.EvaluateShared(m)
			if !c.Valid {
				continue
			}
			s.res.Valid++
			s.considerBest(m, &c, met)
			if v := s.opt.Objective.Value(&c); bestM == nil || v < bestV {
				bestM, bestV = m.Clone(), v
			}
		}
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		if bestM != nil {
			s.cur = bestM
			cc := s.dw.Seed(s.cur)
			s.curVal = s.opt.Objective.Value(&cc)
			s.sweepReady = true
			return false, nil
		}
		// Nothing valid in the batch; fall through to a perturbation kick.
	}
	s.cur = s.res.Best.Clone()
	c := s.dw.Seed(s.cur)
	if !c.Valid {
		return false, errors.New("search: guided incumbent no longer validates")
	}
	s.curVal = s.opt.Objective.Value(&c)
	s.sweepReady = true
	kick := guidedPerturbMin + int(s.sinceBest-1)%(guidedPerturbMax-guidedPerturbMin+1)
	for i := 0; i < kick && s.budgetLeft(); i++ {
		mv := s.mut.Propose(s.rnd)
		mv.Apply(s.cur)
		s.res.Evaluated++
		cc := s.dw.Evaluate(mv.Delta())
		if cc.Valid {
			s.res.Valid++
			s.dw.Commit()
			s.curVal = s.opt.Objective.Value(&cc)
			s.considerBest(s.cur, &cc, met) // a kick can stumble onto an improvement
		} else {
			s.dw.Reject()
			mv.Undo(s.cur)
		}
	}
	return false, nil
}

func (s *GuidedSearcher) finish(met engine.Metrics) bool {
	s.done = true
	if s.res.Best != nil {
		met.BestObjective(s.opt.Objective.Value(&s.res.BestCost))
	}
	met.SearchDone(time.Since(s.start), s.res.Evaluated, s.res.Valid) //ruby:allow determinism -- wall time feeds Metrics.SearchDone only; never enters a snapshot
	return true
}

// Snapshot implements Searcher.
func (s *GuidedSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st := &checkpoint.SearchState{
		Algo: "guided", Done: s.done, RNG: s.rng.Clone(),
		Evaluated: s.res.Evaluated, Valid: s.res.Valid,
		Warmed: s.seeded, Phase: s.phase,
		Restarts: s.restarts, SinceBest: s.sinceBest,
		Trace: encodeTrace(s.res.Trace),
	}
	if err := snapshotBest(st, s.res); err != nil {
		return nil, err
	}
	if s.cur != nil {
		raw, err := s.cur.Encode()
		if err != nil {
			return nil, fmt.Errorf("search: snapshot guided working mapping: %w", err)
		}
		st.Cur = raw
	}
	return st, nil
}

// Restore implements Searcher.
func (s *GuidedSearcher) Restore(st *checkpoint.SearchState) error {
	if st.Algo != "guided" {
		return fmt.Errorf("search: cannot restore %q snapshot into a guided searcher", st.Algo)
	}
	if st.RNG == nil {
		return errors.New("search: guided snapshot lacks RNG state")
	}
	*s.rng = *st.RNG.Clone()
	s.res.Evaluated, s.res.Valid = st.Evaluated, st.Valid
	s.seeded, s.done = st.Warmed, st.Done
	s.phase = st.Phase
	if s.phase == "" {
		s.phase = guidedPhaseSeed
	}
	s.restarts, s.sinceBest = st.Restarts, st.SinceBest
	s.res.Trace = decodeTrace(st.Trace)
	// The delta session is process-local: drop the working mapping's session
	// and re-seed on the next sweep step.
	s.cur, s.sweepReady = nil, false
	if len(st.Cur) > 0 {
		m, err := mapping.Decode(st.Cur, s.sp.Work, s.sp.Slots())
		if err != nil {
			return fmt.Errorf("search: restore guided working mapping: %w", err)
		}
		s.cur = m
	}
	return restoreBest(st, s.sp, s.res)
}
