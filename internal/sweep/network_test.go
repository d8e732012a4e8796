package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

func freeCons(*workload.Workload) mapspace.Constraints { return mapspace.Constraints{} }

// pairNetwork is a pointwise producer feeding a 3x3 consumer, small enough
// that fused pairs are found within tiny budgets (the same shape the nest
// fused-evaluator tests pin down).
func pairNetwork() *workload.Network {
	prod := workload.MustConv2D(workload.Conv2DParams{
		Name: "p", N: 1, M: 16, C: 4, P: 14, Q: 14, R: 1, S: 1})
	cons := workload.MustConv2D(workload.Conv2DParams{
		Name: "c", N: 1, M: 8, C: 16, P: 14, Q: 14, R: 3, S: 3})
	return workload.MustNetwork("pair",
		[]workload.Node{
			{Name: "p", Repeat: 2, Work: prod},
			{Name: "c", Repeat: 3, Work: cons},
		},
		[]workload.Edge{{From: "p", To: "c", Dims: map[string]string{
			"N": "N", "M": "C", "P": "P", "Q": "Q"}}})
}

// The network entry point over an edge-free graph must reproduce the []Layer
// path exactly.
func TestRunSuiteNetworkMatchesLayers(t *testing.T) {
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	layers := smallSuite()
	net := workloads.NetworkFromLayers("small", layers)
	want, err := RunSuiteLayers(context.Background(), layers, a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSuite(context.Background(), net, a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt})
	if err != nil {
		t.Fatal(err)
	}
	if got.EDP != want.EDP || got.TotalEnergyPJ != want.TotalEnergyPJ || got.TotalCycles != want.TotalCycles {
		t.Fatalf("network totals %+v diverge from layer totals %+v", got, want)
	}
	for i := range want.Layers {
		if got.Layers[i].Cost.EDP != want.Layers[i].Cost.EDP {
			t.Fatalf("layer %d EDP diverges", i)
		}
	}
}

func TestSearchNetworkFusesPair(t *testing.T) {
	net := pairNetwork()
	a := arch.EyerissLike(4, 3, 2)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 5, Threads: 1, MaxEvaluations: 2000}}

	off, err := SearchNetwork(context.Background(), net, a, st, freeCons, so, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Segments) != 0 || off.EDP != off.Baseline.EDP {
		t.Fatalf("fusion-disabled search diverges from baseline: %+v", off)
	}

	nr, err := SearchNetwork(context.Background(), net, a, st, freeCons, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 1 {
		t.Fatalf("got %d fused segments, want 1", len(nr.Segments))
	}
	sg := nr.Segments[0]
	if sg.From != "p" || sg.To != "c" || sg.Repeat != 2 {
		t.Fatalf("bad segment %+v", sg)
	}
	if sg.Fused.ElidedWords <= 0 {
		t.Fatal("segment elides no DRAM words")
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not below baseline %g", nr.EDP, nr.Baseline.EDP)
	}
	// The totals are the baseline with the segment's delta applied at the
	// fused repeat; the consumer's leftover repeat stays at baseline.
	r := float64(sg.Repeat)
	wantE := nr.Baseline.TotalEnergyPJ + r*(sg.Fused.EnergyPJ-sg.BaselineEnergyPJ)
	wantC := nr.Baseline.TotalCycles + r*(sg.Fused.Cycles-sg.BaselineCycles)
	if nr.TotalEnergyPJ != wantE || nr.TotalCycles != wantC || nr.EDP != wantE*wantC {
		t.Fatalf("totals %g/%g diverge from segment accounting %g/%g", nr.TotalEnergyPJ, nr.TotalCycles, wantE, wantC)
	}
}

// resnetSegments builds a network of two pinned disjoint ResNet-50 fusion
// candidates: the res2 bottleneck entry (1x1 into the 3x3 at 56x56) and the
// res3 bottleneck exit (the 3x3 into the expanding 1x1 at 28x28).
func resnetSegments(t *testing.T) *workload.Network {
	t.Helper()
	byName := make(map[string]workloads.Layer)
	for _, l := range workloads.ResNet50() {
		byName[l.Name] = l
	}
	var nodes []workload.Node
	for _, name := range []string{"res2a_branch2a", "res2x_branch2b", "res3x_branch2b", "res3x_branch2c"} {
		l, ok := byName[name]
		if !ok {
			t.Fatalf("ResNet-50 layer %s missing", name)
		}
		nodes = append(nodes, workload.Node{Name: l.Name, Repeat: l.Repeat, Work: l.Work})
	}
	return workload.MustNetwork("resnet50-segments", nodes,
		[]workload.Edge{
			{From: "res2a_branch2a", To: "res2x_branch2b", Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}},
			{From: "res3x_branch2b", To: "res3x_branch2c", Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}},
		})
}

// Acceptance: on two pinned ResNet-50 segments the fused search must report
// strictly lower network EDP than the per-layer baseline, fusing both.
func TestSearchNetworkFusesResNetSegments(t *testing.T) {
	net := resnetSegments(t)
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 1, Threads: 1, MaxEvaluations: 4000}}
	nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) < 2 {
		t.Fatalf("fused %d ResNet-50 segments, want 2", len(nr.Segments))
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not strictly below per-layer %g", nr.EDP, nr.Baseline.EDP)
	}
	for _, sg := range nr.Segments {
		if sg.Fused.ElidedWords <= 0 {
			t.Fatalf("segment %s->%s elides no DRAM words", sg.From, sg.To)
		}
	}
}

// Acceptance: the DeepBench vision stack must fuse with strictly lower
// network EDP than its per-layer baseline.
func TestSearchNetworkFusesDeepBenchStack(t *testing.T) {
	full := workloads.DeepBenchStacks()
	// The vision 3x3 stack alone: the speech GEMMs' intermediate is far
	// beyond on-chip capacity at single-fetch, so they stay per-layer.
	var nodes []workload.Node
	for _, nd := range full.Nodes {
		if nd.Name == "vision_stack_3x3_28a" || nd.Name == "vision_stack_3x3_28b" {
			nodes = append(nodes, nd)
		}
	}
	net := workload.MustNetwork("deepbench-vision", nodes,
		[]workload.Edge{{From: "vision_stack_3x3_28a", To: "vision_stack_3x3_28b",
			Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}}})
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 7, Threads: 1, MaxEvaluations: 4000}}
	nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 1 {
		t.Fatalf("fused %d DeepBench segments, want 1", len(nr.Segments))
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not strictly below per-layer %g", nr.EDP, nr.Baseline.EDP)
	}
}

// A checkpointed network search must resume bit-identically with segment
// searches running in parallel: from a checkpoint holding every outcome the
// second run re-searches nothing, and from a partial checkpoint (every
// baseline layer plus some fused and some negative segment records) it
// re-searches exactly the missing edges and reproduces the full run.
func TestSearchNetworkCheckpointResume(t *testing.T) {
	net := workloads.ResNet50Network()
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	opt := search.Options{Seed: 1, Threads: 1, MaxEvaluations: 300}
	dir := t.TempDir()
	run := func(path string) (*NetworkResult, *SuiteCheckpoint) {
		t.Helper()
		cp, err := OpenSuiteCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary,
			SuiteOptions{Search: opt, Checkpoint: cp, Parallel: 4}, true)
		if err != nil {
			t.Fatal(err)
		}
		return nr, cp
	}

	full := filepath.Join(dir, "full.suite.json")
	first, cp := run(full)
	if len(first.Segments) == 0 {
		t.Fatal("no fused segments to resume")
	}
	if len(cp.st.Segments) != len(net.Edges) {
		t.Fatalf("checkpoint holds %d segment records, want one per edge (%d)", len(cp.st.Segments), len(net.Edges))
	}

	second, _ := run(full)
	sameNetworkResult(t, second, first, func(string) bool { return true })

	// Keep every other segment record, sorted by key, so the partial
	// checkpoint mixes fused and negative outcomes.
	keys := make([]string, 0, len(cp.st.Segments))
	for k := range cp.st.Segments {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	partial := checkpoint.SuiteState{Layers: cp.st.Layers, Segments: map[string]*checkpoint.SegmentState{}}
	var fused, negative int
	for i := 0; i < len(keys); i += 2 {
		ss := cp.st.Segments[keys[i]]
		partial.Segments[keys[i]] = ss
		if ss.Fused {
			fused++
		} else {
			negative++
		}
	}
	if fused == 0 || negative == 0 {
		t.Fatalf("partial checkpoint holds %d fused and %d negative records, want both", fused, negative)
	}
	part := filepath.Join(dir, "partial.suite.json")
	if err := checkpoint.Save(part, checkpoint.KindSuite, &partial); err != nil {
		t.Fatal(err)
	}
	third, cp3 := run(part)
	sameNetworkResult(t, third, first, func(edge string) bool {
		for k := range partial.Segments {
			if strings.HasSuffix(k, "|fuse="+edge) {
				return true
			}
		}
		return false
	})
	// The resumed run recorded exactly the outcomes the full run did (the
	// mappings compared compacted: records loaded from the file lost the
	// indentation Encode writes).
	if len(cp3.st.Segments) != len(cp.st.Segments) {
		t.Fatalf("partial resume left %d segment records, want %d", len(cp3.st.Segments), len(cp.st.Segments))
	}
	for k, want := range cp.st.Segments {
		got := cp3.st.Segments[k]
		if got == nil || got.Fused != want.Fused || got.EDP != want.EDP || got.Evaluated != want.Evaluated ||
			!sameJSON(got.Producer, want.Producer) || !sameJSON(got.Consumer, want.Consumer) {
			t.Fatalf("segment record %s diverges after partial resume", k)
		}
	}
}

func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// sameNetworkResult fails unless got reproduces want bit for bit: totals,
// baseline layers and selected segments. Segments for which resumed reports
// true must have been restored (Evaluated 0); the others must report
// want's evaluation count.
func sameNetworkResult(t *testing.T, got, want *NetworkResult, resumed func(edge string) bool) {
	t.Helper()
	if got.EDP != want.EDP || got.TotalEnergyPJ != want.TotalEnergyPJ || got.TotalCycles != want.TotalCycles {
		t.Fatalf("resumed totals diverge: EDP %g vs %g", got.EDP, want.EDP)
	}
	for i := range want.Baseline.Layers {
		if got.Baseline.Layers[i].Cost.EDP != want.Baseline.Layers[i].Cost.EDP {
			t.Fatalf("baseline layer %s diverges", want.Baseline.Layers[i].Layer.Name)
		}
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("resumed run selected %d segments, want %d", len(got.Segments), len(want.Segments))
	}
	for i, w := range want.Segments {
		g := got.Segments[i]
		edge := w.From + "->" + w.To
		if g.From != w.From || g.To != w.To || g.Fused.EDP != w.Fused.EDP || g.Fused.Cycles != w.Fused.Cycles ||
			g.Fused.EnergyPJ != w.Fused.EnergyPJ || g.Fused.ElidedWords != w.Fused.ElidedWords {
			t.Fatalf("segment %d: got %s->%s EDP %g, want %s EDP %g", i, g.From, g.To, g.Fused.EDP, edge, w.Fused.EDP)
		}
		for _, pair := range [][2]*mapping.Mapping{{g.Producer, w.Producer}, {g.Consumer, w.Consumer}} {
			ge, err1 := pair[0].Encode()
			we, err2 := pair[1].Encode()
			if err1 != nil || err2 != nil || !bytes.Equal(ge, we) {
				t.Fatalf("segment %s mappings diverge", edge)
			}
		}
		wantEval := w.Evaluated
		if resumed(edge) {
			wantEval = 0
		}
		if g.Evaluated != wantEval {
			t.Fatalf("segment %s evaluated %d, want %d", edge, g.Evaluated, wantEval)
		}
	}
}

// Concurrent segment records into one checkpoint must not race and must all
// persist.
func TestSuiteCheckpointConcurrentRecordSegment(t *testing.T) {
	net := workloads.ResNet50Network()
	binds, err := net.Bindings()
	if err != nil {
		t.Fatal(err)
	}
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	opt := search.Options{Seed: 1, MaxEvaluations: 300}
	path := filepath.Join(t.TempDir(), "net.suite.json")
	cp, err := OpenSuiteCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(binds))
	for i, b := range binds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := SegmentResult{From: b.Prod.Name, To: b.Cons.Name, EdgeIndex: b.EdgeIndex, Evaluated: int64(i + 1)}
			errs[i] = cp.recordSegment(b, a, st, opt, sr, false)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	back, err := OpenSuiteCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.st.Segments) != len(binds) {
		t.Fatalf("reopened checkpoint holds %d segment records, want %d", len(back.st.Segments), len(binds))
	}
	for i, b := range binds {
		ss := back.st.Segments[segmentKey(a, st, opt, b)]
		if ss == nil || !ss.Done || ss.Evaluated != int64(i+1) {
			t.Fatalf("segment %s->%s record %+v lost or wrong", b.Prod.Name, b.Cons.Name, ss)
		}
	}
}

// Cancelling the context during the segment phase makes SearchNetwork
// return the context's error, and every segment worker exits.
func TestSearchNetworkCancelDuringSegments(t *testing.T) {
	net := workloads.ResNet50Network()
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	// The baseline stops on its no-improvement criterion; the segment
	// searches, which spend the whole evaluation budget, would run for
	// hours.
	so := SuiteOptions{
		Search:   search.Options{Seed: 1, Threads: 1, MaxEvaluations: 1 << 40, ConsecutiveNoImprove: 50},
		Parallel: 4,
	}
	before := runtime.NumGoroutine()
	rec := obs.NewRecorder(1 << 16)
	ctx, cancel := context.WithCancel(obs.WithRecorder(context.Background(), rec))
	defer cancel()
	// The baseline suite span ends before any segment search starts, so
	// the first constraint lookup after it comes from inside a segment
	// search: cancel there.
	baselineDone := func() bool {
		for _, sp := range rec.Spans() {
			if strings.HasPrefix(sp.Name, "suite:") {
				return true
			}
		}
		return false
	}
	consFn := func(w *workload.Workload) mapspace.Constraints {
		if baselineDone() {
			cancel()
		}
		return mapspace.EyerissRowStationary(w)
	}
	_, err := SearchNetwork(ctx, net, a, st, consFn, so, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchNetwork returned %v, want context.Canceled", err)
	}
	var segments int
	for _, sp := range rec.Spans() {
		if strings.HasPrefix(sp.Name, "segment:") {
			segments++
		}
	}
	if segments == 0 {
		t.Fatal("no segment search was running when the context was cancelled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the search", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
