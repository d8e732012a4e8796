package nest

import (
	"fmt"

	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// The legacy string-keyed cost model: the reference implementation the
// compiled plan (plan.go) was derived from, kept only as a test oracle.
// TestPlanMatchesLegacy and its siblings pin the compiled plan to it bit for
// bit, so it must keep reproducing the original model exactly.

// invalid builds an invalid-verdict Cost.
func invalid(format string, args ...any) Cost {
	return Cost{Valid: false, Reason: fmt.Sprintf(format, args...)}
}

// EvaluateLegacy computes the cost of mapping m through the original
// string-keyed model.
func (e *Evaluator) EvaluateLegacy(m *mapping.Mapping) Cost {
	macs, lanes := float64(e.Work.MACs()), float64(e.Arch.TotalLanes())
	chains, err := m.Chains(e.Work, e.Slots)
	if err != nil {
		return invalid("chains: %v", err)
	}
	if err := m.ValidatePerms(e.Work, e.Arch); err != nil {
		return invalid("perms: %v", err)
	}

	// Spatial fanout bounds.
	for _, s := range e.Slots {
		if !s.Spatial() {
			continue
		}
		used := 1
		for _, d := range e.dims {
			used *= chains[d].Trips(s.Index)
		}
		if used > s.Fanout {
			return invalid("fanout: slot %d (%s level %d) exceeds %d instances",
				s.Index, s.Kind, s.Level, s.Fanout)
		}
	}

	// Storage residency and capacity.
	kept := make([]map[workload.Role]bool, len(e.Arch.Levels))
	for li := range e.Arch.Levels {
		kept[li] = m.KeptRoles(e.Arch, li)
	}
	vols := e.tileVolumes(chains) // [level][tensor index]
	for li := 1; li < len(e.Arch.Levels); li++ {
		l := &e.Arch.Levels[li]
		var shared int64
		for ti := range e.Work.Tensors {
			t := &e.Work.Tensors[ti]
			if !kept[li][t.Role] {
				continue
			}
			v := vols[li][ti]
			if capWords, dedicated := l.RoleCapacity(t.Role); dedicated {
				if v > capWords {
					return invalid("capacity: level %s %v tile exceeds dedicated %d words",
						l.Name, t.Role, capWords)
				}
			} else {
				shared += v
			}
		}
		if l.PerRole == nil && l.Capacity > 0 && shared > l.Capacity {
			return invalid("capacity: level %s exceeds shared capacity %d words", l.Name, l.Capacity)
		}
	}

	c := Cost{
		Valid:         true,
		MACs:          macs,
		LevelReads:    make([]float64, len(e.Arch.Levels)),
		LevelWrites:   make([]float64, len(e.Arch.Levels)),
		LevelEnergyPJ: make([]float64, len(e.Arch.Levels)),
	}

	// Inter-level traffic per tensor along its chain of kept levels.
	for ti := range e.Work.Tensors {
		t := &e.Work.Tensors[ti]
		keptLevels := e.keptLevels(t.Role, kept)
		for i := 1; i < len(keptLevels); i++ {
			parent, child := keptLevels[i-1], keptLevels[i]
			e.addLinkTraffic(&c, m, chains, t, float64(vols[child][ti]), parent, child)
		}
		// Datapath-side accesses at the innermost kept level. A multicast
		// network below the buffer delivers one read to every lane iterating
		// a tensor-irrelevant spatial dimension (broadcast for inputs, a
		// spatial reduction tree for partial sums), so those lanes share one
		// buffer access.
		inner := keptLevels[len(keptLevels)-1]
		ops := macs / e.broadcastBelow(t, chains, inner)
		c.LevelReads[inner] += ops
		c.NoCEnergyPJ += ops * e.hopEnergy(inner, len(e.Arch.Levels))
		if t.Role == workload.Output {
			c.LevelWrites[inner] += ops
			c.NoCEnergyPJ += ops * e.hopEnergy(inner, len(e.Arch.Levels))
		}
	}

	// Latency: compute-bound cycles, stretched by any bandwidth-limited
	// level (aggregate traffic over aggregate per-level bandwidth).
	c.Cycles = 1
	for _, d := range e.dims {
		c.Cycles *= e.cyclesAlong(chains[d])
	}
	for li := range e.Arch.Levels {
		bw := e.Arch.Levels[li].BandwidthWords
		if bw <= 0 {
			continue
		}
		memCycles := (c.LevelReads[li] + c.LevelWrites[li]) / (bw * float64(e.Arch.Instances(li)))
		if memCycles > c.Cycles {
			c.Cycles = memCycles
			c.BandwidthBound = e.Arch.Levels[li].Name
		}
	}
	c.Utilization = macs / (c.Cycles * lanes)

	// Energy: dynamic accesses + MACs + optional NoC hops and leakage.
	c.MACEnergyPJ = macs * e.Arch.Energy.MAC()
	c.EnergyPJ = c.MACEnergyPJ + c.NoCEnergyPJ
	for li := range e.Arch.Levels {
		c.LevelEnergyPJ[li] = (c.LevelReads[li] + c.LevelWrites[li]) * e.Arch.AccessEnergyPJ(li)
		c.EnergyPJ += c.LevelEnergyPJ[li]
		if s := e.Arch.Levels[li].StaticPJPerCycle; s > 0 {
			c.StaticEnergyPJ += s * c.Cycles * float64(e.Arch.Instances(li))
		}
	}
	c.EnergyPJ += c.StaticEnergyPJ
	c.EDP = c.EnergyPJ * c.Cycles
	return c
}

// addLinkTraffic accumulates the traffic between consecutive kept levels
// (parent, child) for tensor t whose per-child-instance tile volume is vol.
//
// The walk implements the stationarity model: starting from the child's tile
// boundary and moving outward, contiguous temporal loops irrelevant to the
// tensor reuse the resident tile (no refetch); the first relevant loop breaks
// the run, after which every outer temporal loop multiplies fills. Spatial
// slots never advance time: relevant ones partition data across instances
// (reads and deliveries multiply), irrelevant ones replicate it (deliveries
// multiply; parent reads multiply only when the connecting network cannot
// multicast). For outputs, index dimensions are the relevant set, so
// reduction loops inside the run accumulate in place, while fills beyond the
// number of distinct output tiles cost a partial-sum round trip.
func (e *Evaluator) addLinkTraffic(c *Cost, m *mapping.Mapping, chains map[string]mapping.Chain,
	t *workload.Tensor, vol float64, parent, child int) {

	ls := e.linkStats(m, chains, t, vol, parent, child)
	hop := e.hopEnergy(parent, child)
	if t.Role == workload.Output {
		transfers := ls.Fills * ls.DelivMult
		writesUp := transfers * vol // child -> parent partial/final tiles
		// Distinct output tiles at this boundary; transfers beyond that are
		// partial-sum round trips (parent read + child re-fill).
		rmw := transfers - ls.Distinct
		if rmw < 0 {
			rmw = 0
		}
		c.LevelWrites[parent] += writesUp
		c.LevelReads[parent] += rmw * vol
		c.LevelReads[child] += writesUp   // child drains its tile upward
		c.LevelWrites[child] += rmw * vol // and re-fills it on revisits
		c.NoCEnergyPJ += (writesUp + rmw*vol) * hop
		return
	}
	c.LevelReads[parent] += ls.Fills * ls.ReadsMult * vol
	c.LevelWrites[child] += ls.Fills * ls.DelivMult * vol
	c.NoCEnergyPJ += ls.Fills * ls.DelivMult * vol * hop
}

// hopEnergy sums the per-word wire energy of the networks a parent->child
// transfer crosses (the fanouts of every level from parent to just above
// child).
func (e *Evaluator) hopEnergy(parent, child int) float64 {
	var total float64
	for li := parent; li < child; li++ {
		n := e.Arch.Levels[li].Fanout
		if n.HopEnergyPJ > 0 {
			total += n.HopEnergyPJ * n.MeanHops()
		}
	}
	return total
}

// broadcastBelow returns the sharing factor for datapath-side accesses at
// level li: the product of trips of tensor-irrelevant spatial slots at or
// inside li whose network multicasts.
func (e *Evaluator) broadcastBelow(t *workload.Tensor, chains map[string]mapping.Chain, li int) float64 {
	rel := e.relevant[t.Name]
	share := 1.0
	for _, s := range e.Slots {
		if !s.Spatial() || s.Level < li || !s.Multicast {
			continue
		}
		for _, d := range e.dims {
			if rel[d] {
				continue
			}
			if tr := chains[d].Trips(s.Index); tr > 1 {
				share *= float64(tr)
			}
		}
	}
	return share
}

// cyclesAlong returns the exact number of sequential (temporal) steps the
// nest takes along one dimension, accounting for remainder tiles at every
// slot. Spatial slots collapse to the largest instance's share.
func (e *Evaluator) cyclesAlong(ch mapping.Chain) float64 {
	type key struct{ chunk, si int }
	memo := make(map[key]float64)
	var rec func(chunk, si int) float64
	rec = func(chunk, si int) float64 {
		if si == len(e.Slots) {
			return 1
		}
		sub := ch.Cum[si+1]
		if e.Slots[si].Spatial() {
			if chunk < sub {
				sub = chunk
			}
			return rec(sub, si+1)
		}
		if sub >= chunk {
			return rec(chunk, si+1)
		}
		k := key{chunk, si}
		if v, ok := memo[k]; ok {
			return v
		}
		n := (chunk + sub - 1) / sub
		rem := chunk - (n-1)*sub
		v := float64(n-1)*rec(sub, si+1) + rec(rem, si+1)
		memo[k] = v
		return v
	}
	return rec(ch.Bound, 0)
}
