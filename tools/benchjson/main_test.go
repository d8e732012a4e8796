package main

import (
	"strings"
	"testing"
)

// TestGateAllocsMetric checks the Name:allocs/op gate spec: allocation
// growth within the tolerance passes, growth beyond it fails, and a run
// that did not report allocations fails rather than passing silently.
func TestGateAllocsMetric(t *testing.T) {
	line := func(allocs string) Entry {
		e, ok := parseLine("BenchmarkGuidedConverge-2   200   4192358 ns/op   646.0 convergence_evals   68486 B/op   " + allocs + " allocs/op")
		if !ok {
			t.Fatal("benchmark line did not parse")
		}
		return e
	}
	base := map[string]Entry{"BenchmarkGuidedConverge": line("300")}
	spec := []string{"BenchmarkGuidedConverge:allocs/op"}
	if f := checkGate([]Entry{line("360")}, base, spec, 0.20); len(f) != 0 {
		t.Errorf("20%% more allocations failed the gate: %v", f)
	}
	if f := checkGate([]Entry{line("361")}, base, spec, 0.20); len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
		t.Errorf("over 20%% more allocations passed the gate: %v", f)
	}
	noAllocs, ok := parseLine("BenchmarkGuidedConverge-2   200   4192358 ns/op   646.0 convergence_evals")
	if !ok {
		t.Fatal("benchmark line without allocations did not parse")
	}
	if f := checkGate([]Entry{noAllocs}, base, spec, 0.20); len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Errorf("a run without allocation counts passed the gate: %v", f)
	}
	if f := checkGate([]Entry{line("300")}, base, []string{"BenchmarkGuidedConverge:convergence_evals"}, 0.20); len(f) != 0 {
		t.Errorf("custom-metric gate regressed: %v", f)
	}
}
