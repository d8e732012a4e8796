// Package nest is the analytical loop-nest cost model (the Timeloop-style
// "architecture cost modeling" subproblem): given a workload, an architecture
// and a mapping, it computes validity, per-level access counts, latency in
// cycles, compute utilization, energy, and the energy-delay product.
//
// The model understands imperfect factorization natively: loop trip counts
// use ceiling division, the final iteration of an imperfect loop processes a
// remainder tile, and latency is computed by an exact memoized recursion over
// (chunk size, slot) so that nested remainders do not accumulate error.
// Spatial slots contribute parallelism (elapsed time is the largest
// instance's share) rather than time.
package nest

import (
	"sync"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Cost is the evaluation result for one mapping.
type Cost struct {
	// Valid reports whether the mapping satisfies structural, fanout and
	// capacity constraints. Invalid costs carry a Reason and no metrics.
	Valid  bool
	Reason string // human-readable cause of the invalid verdict

	Cycles      float64 // latency, in MAC-issue cycles
	MACs        float64 // real compute operations (padded workloads include ineffectual ones)
	Utilization float64 // MACs / (Cycles * total lanes)
	EnergyPJ    float64 // total energy, picojoules
	EDP         float64 // EnergyPJ * Cycles

	// Per-architecture-level aggregate word accesses and energy.
	LevelReads    []float64
	LevelWrites   []float64
	LevelEnergyPJ []float64
	MACEnergyPJ   float64 // datapath energy (MACs x per-MAC cost)

	// NoCEnergyPJ is the network hop energy (0 unless Network.HopEnergyPJ
	// is configured).
	NoCEnergyPJ float64
	// StaticEnergyPJ is the leakage energy (0 unless Level.StaticPJPerCycle
	// is configured).
	StaticEnergyPJ float64
	// BandwidthBound names the level whose bandwidth limited latency, if
	// any (empty when compute-bound).
	BandwidthBound string
}

// Better reports whether c strictly improves on o under the EDP objective.
// Any valid cost beats an invalid one.
func (c *Cost) Better(o *Cost) bool {
	if !c.Valid {
		return false
	}
	if !o.Valid {
		return true
	}
	return c.EDP < o.EDP
}

// Evaluator evaluates mappings of one workload onto one architecture. It is
// safe for concurrent use.
type Evaluator struct {
	Work  *workload.Workload // the evaluated iteration space
	Arch  *arch.Arch         // the target hierarchy
	Slots []mapping.Slot     // the derived tiling slot list (mapping.Slots)

	dims      []string
	relevant  map[string]map[string]bool // tensor name -> dim -> indexes tensor
	firstSlot []int                      // per level, index of its temporal slot

	plan    *Plan     // compiled integer-indexed evaluation program
	scratch sync.Pool // of *Scratch, for the Evaluate adapter
}

// NewEvaluator builds an evaluator, validating the architecture.
func NewEvaluator(w *workload.Workload, a *arch.Arch) (*Evaluator, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		Work:     w,
		Arch:     a,
		Slots:    mapping.Slots(a),
		dims:     w.DimNames(),
		relevant: make(map[string]map[string]bool, len(w.Tensors)),
	}
	for i := range w.Tensors {
		t := &w.Tensors[i]
		e.relevant[t.Name] = t.RelevantDims()
	}
	e.firstSlot = make([]int, len(a.Levels))
	for li := range a.Levels {
		e.firstSlot[li] = mapping.FirstSlotOfLevel(e.Slots, li)
	}
	e.plan = newPlan(w, a, e.Slots, e.firstSlot)
	e.scratch.New = func() any { return e.plan.NewScratch() }
	return e, nil
}

// Plan returns the evaluator's compiled evaluation program. Pair it with a
// per-goroutine Scratch (Plan.NewScratch) for allocation-free evaluation.
func (e *Evaluator) Plan() *Plan { return e.plan }

// MustEvaluator is NewEvaluator, panicking on error.
func MustEvaluator(w *workload.Workload, a *arch.Arch) *Evaluator {
	e, err := NewEvaluator(w, a)
	if err != nil {
		panic(err)
	}
	return e
}

// Evaluate computes the cost of mapping m via the compiled plan. Callers
// that evaluate in a tight loop should hold their own Scratch and call
// Plan().EvaluateMappingInto directly; this adapter borrows one from a pool
// and detaches the result, costing one small allocation per valid mapping.
func (e *Evaluator) Evaluate(m *mapping.Mapping) Cost {
	s := e.scratch.Get().(*Scratch)
	c := e.plan.EvaluateMapping(m, s)
	e.scratch.Put(s)
	return c
}

// tileVolumes computes, per level and tensor, the tensor's tile footprint in
// words: the data covered by the level's own loops and everything inner.
func (e *Evaluator) tileVolumes(chains map[string]mapping.Chain) [][]int64 {
	vols := make([][]int64, len(e.Arch.Levels))
	ext := make(map[string]int, len(e.dims))
	for li := range e.Arch.Levels {
		si := e.firstSlot[li]
		for _, d := range e.dims {
			ext[d] = chains[d].Cum[si]
		}
		vols[li] = make([]int64, len(e.Work.Tensors))
		for ti := range e.Work.Tensors {
			vols[li][ti] = e.Work.Tensors[ti].TileVolume(ext)
		}
	}
	return vols
}

// keptLevels lists the levels storing tensors of the given role, outermost
// first. Level 0 (DRAM) is always included.
func (e *Evaluator) keptLevels(r workload.Role, kept []map[workload.Role]bool) []int {
	out := []int{0}
	for li := 1; li < len(e.Arch.Levels); li++ {
		if kept[li][r] {
			out = append(out, li)
		}
	}
	return out
}

// LinkStats describes the modeled transfer behavior of one tensor across
// one (parent, child) pair of consecutive kept levels.
type LinkStats struct {
	Tensor        string // the operand's name
	Parent, Child int    // level indexes of the link's endpoints
	// Fills is the temporal tile-change event count per child subtree.
	Fills float64
	// ReadsMult and DelivMult are the spatial multipliers on parent-side
	// reads and delivered copies.
	ReadsMult, DelivMult float64
	// Distinct is the number of distinct output tiles (outputs only).
	Distinct float64
	// Vol is the per-instance tile volume in words.
	Vol float64
}

// Links returns the per-tensor inter-level transfer statistics of a valid
// mapping (nil with an error message for invalid ones). Used by verbose
// reports and by the differential tests against the execution-driven
// simulator.
func (e *Evaluator) Links(m *mapping.Mapping) ([]LinkStats, error) {
	chains, err := m.Chains(e.Work, e.Slots)
	if err != nil {
		return nil, err
	}
	if err := m.ValidatePerms(e.Work, e.Arch); err != nil {
		return nil, err
	}
	kept := make([]map[workload.Role]bool, len(e.Arch.Levels))
	for li := range e.Arch.Levels {
		kept[li] = m.KeptRoles(e.Arch, li)
	}
	vols := e.tileVolumes(chains)
	var out []LinkStats
	for ti := range e.Work.Tensors {
		t := &e.Work.Tensors[ti]
		keptLevels := e.keptLevels(t.Role, kept)
		for i := 1; i < len(keptLevels); i++ {
			parent, child := keptLevels[i-1], keptLevels[i]
			ls := e.linkStats(m, chains, t, float64(vols[child][ti]), parent, child)
			out = append(out, ls)
		}
	}
	return out, nil
}

// linkStats runs the stationarity walk for one (tensor, parent, child) link.
func (e *Evaluator) linkStats(m *mapping.Mapping, chains map[string]mapping.Chain,
	t *workload.Tensor, vol float64, parent, child int) LinkStats {

	rel := e.relevant[t.Name]
	inRun := true
	fills := 1.0     // temporal tile-change events per child instance subtree
	readsMult := 1.0 // spatial multiplier on parent-side reads
	delivMult := 1.0 // spatial multiplier on delivered copies
	distinct := 1.0  // distinct tiles (outputs): relevant temporal x relevant spatial

	boundary := e.firstSlot[child]
	for si := boundary - 1; si >= 0; si-- {
		s := e.Slots[si]
		if s.Kind == mapping.Temporal {
			perm := m.Perms[s.Level]
			for pi := len(perm) - 1; pi >= 0; pi-- {
				d := perm[pi]
				tr := float64(chains[d].Trips(si))
				if tr == 1 {
					continue
				}
				r := rel[d]
				if r {
					distinct *= tr
				}
				if inRun && !r {
					continue
				}
				inRun = false
				fills *= tr
			}
			continue
		}
		for _, d := range e.dims {
			tr := float64(chains[d].Trips(si))
			if tr == 1 {
				continue
			}
			if rel[d] {
				readsMult *= tr
				delivMult *= tr
				distinct *= tr
				continue
			}
			delivMult *= tr
			if s.Level < parent || !s.Multicast {
				// Outside the parent's subtree (replicated parents), or a
				// network without multicast: every copy is a separate read.
				readsMult *= tr
			}
		}
	}
	return LinkStats{
		Tensor: t.Name, Parent: parent, Child: child,
		Fills: fills, ReadsMult: readsMult, DelivMult: delivMult,
		Distinct: distinct, Vol: vol,
	}
}
