package factor

import "testing"

// FuzzFactorChains cross-checks the three chain primitives against each
// other on randomized (dimension, slot-spec) inputs: EnumerateChains must
// yield exactly CountChains tuples, every yielded tuple must pass
// ValidateChain, and perfect-only chains must multiply out to the dimension
// exactly (imperfect chains may overshoot under ceiling semantics).
//
// Each spec byte encodes one slot: bit 0 is the kind (0 perfect,
// 1 imperfect), bits 1-3 the fanout cap (0 = uncapped).
func FuzzFactorChains(f *testing.F) {
	f.Add(12, []byte{0, 1})
	f.Add(36, []byte{1, 0, 1})
	f.Add(7, []byte{1, 1, 1, 1})
	f.Add(1, []byte{0})
	f.Add(64, []byte{5, 2})
	f.Fuzz(func(t *testing.T, d int, spec []byte) {
		if d < 1 || d > 64 || len(spec) == 0 || len(spec) > 4 {
			t.Skip("outside the cheap enumeration envelope")
		}
		slots := make([]ChainSlot, len(spec))
		perfectOnly := true
		for i, b := range spec {
			slots[i].Kind = SlotKind(b & 1)
			slots[i].Max = int(b>>1) & 7
			if slots[i].Kind != Perfect {
				perfectOnly = false
			}
		}
		want := CountChains(d, slots)
		if want > 50000 {
			t.Skip("mapspace too large for exhaustive enumeration")
		}
		var got uint64
		EnumerateChains(d, slots, nil, func(factors []int) bool {
			got++
			if err := ValidateChain(d, slots, factors); err != nil {
				t.Fatalf("enumerated chain %v invalid: %v", factors, err)
			}
			if perfectOnly {
				prod := 1
				for _, f := range factors {
					prod *= f
				}
				if prod != d {
					t.Fatalf("perfect chain %v has product %d, want %d", factors, prod, d)
				}
			}
			return true
		})
		if got != want {
			t.Fatalf("EnumerateChains yielded %d chains, CountChains says %d", got, want)
		}
		if err := ValidateChain(d, slots, make([]int, len(slots)+1)); err == nil {
			t.Fatal("ValidateChain accepted a wrong-length chain")
		}
	})
}
