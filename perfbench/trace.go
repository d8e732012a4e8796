package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ruby/internal/obs"
)

// traceCapacity bounds the spans one traced unit may record; the run fails
// its checks if a unit overflows it.
const traceCapacity = 1 << 16

// tracedRun is the separate traced run. It alternates untraced and traced
// units, records the existing suite, layer, network, segment and search
// spans plus one span per served request, times each layer's entry points
// with the probe, and reports the per-layer metrics. End-to-end numbers are
// never taken from it.
func tracedRun(ctx context.Context, w bench, o options, out io.Writer) (*result, error) {
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var plain, traced []float64 // unit wall times
	var eng engineCounts
	var agg spanAgg
	var kept, tried int
	var reqBytes, respBytes, requests int64
	var dropped int64
	var last *obs.Recorder
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(traced) < w.variants() || time.Now().Before(deadline) {
		// Both units of a pair do the same work: the same rep, so the same
		// search seed.
		rep := len(traced)
		us, err := measureUnit(ctx, w, false, rep)
		if err != nil {
			return nil, err
		}
		plain = append(plain, us.wall)

		rec := obs.NewRecorder(traceCapacity)
		before := w.engineCounts()
		us, err = measureUnit(obs.WithRecorder(ctx, rec), w, true, rep)
		if err != nil {
			return nil, err
		}
		eng = eng.add(w.engineCounts().sub(before))
		traced = append(traced, us.wall)
		dropped += rec.Dropped()
		agg.add(rec.Spans())
		kept += us.out.kept
		tried += us.out.tried
		reqBytes += us.out.reqBytes
		respBytes += us.out.respBytes
		if us.out.reqBytes > 0 {
			requests += int64(len(us.out.ops))
		}
		last = rec
	}
	pr := probe(w.probePoints(), o.seed)
	chk := w.verify()
	if dropped > 0 {
		chk.fail("the trace recorder dropped %d spans", dropped)
	}
	for _, msg := range chk.messages {
		fmt.Fprintln(out, "check failed:", msg)
	}
	if err := writeTrace(last, o); err != nil {
		return nil, err
	}

	n := float64(len(traced))
	var wallSum float64
	for _, x := range traced {
		wallSum += x
	}
	stats := agg.byKind()
	searchBusy := 0.0
	for kind, s := range stats {
		if strings.HasPrefix(kind, "search:") && kind != "search:worker" {
			searchBusy += s.busy
		}
	}
	perReq := func(x int64) float64 {
		if requests == 0 {
			return 0
		}
		return float64(x) / float64(requests)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	httpSelfMS := 0.0
	if h := stats["http"]; h.count > 0 {
		httpSelfMS = 1e3 * h.self / float64(h.count)
	}
	ms := map[string]metric{
		"bench.trace_overhead_pct":  {100 * (median(traced)/median(plain) - 1), "%"},
		"sweep.layer_busy_s":        {stats["layer"].busy / n, "s"},
		"sweep.parallel_util":       {stats["layer"].busy / (wallSum * float64(nproc())), "ratio"},
		"sweep.segments_tried":      {float64(tried) / n, "count"},
		"sweep.segments_kept":       {float64(kept) / n, "count"},
		"sweep.segment_busy_s":      {stats["segment"].busy / n, "s"},
		"search.busy_s":             {searchBusy / n, "s"},
		"search.self_s":             {(searchBusy - eng.evalSeconds) / n, "s"},
		"search.valid_rate":         {ratio(eng.valid, eng.evals), "ratio"},
		"search.improvements":       {float64(eng.improvements) / n, "count"},
		"search.guided_moves":       {float64(eng.guidedMoves) / n, "count"},
		"search.guided_restarts":    {float64(eng.guidedRestarts) / n, "count"},
		"engine.evals":              {float64(eng.evals) / n, "count"},
		"engine.eval_s":             {eng.evalSeconds / n, "s"},
		"engine.cache_hit_rate":     {ratio(eng.cacheHits, eng.evals), "ratio"},
		"engine.panics":             {float64(eng.panics), "count"},
		"server.self_ms":            {httpSelfMS, "ms"},
		"server.req_bytes":          {perReq(reqBytes), "bytes"},
		"server.resp_bytes":         {perReq(respBytes), "bytes"},
		"nest.compile_us":           {pr.compileUS, "us"},
		"mapspace.space_build_us":   {pr.spaceUS, "us"},
		"mapspace.sampler_build_us": {pr.samplerUS, "us"},
		"mapspace.sampler_bytes":    {pr.samplerBytes, "bytes"},
		"mapspace.sample_ns":        {pr.sampleNS, "ns"},
		"mapping.dense_ns":          {pr.denseNS, "ns"},
		"nest.eval_ns":              {pr.evalNS, "ns"},
		"nest.delta_ns":             {pr.deltaNS, "ns"},
		"mapspace.move_ns":          {pr.moveNS, "ns"},
		"nest.fused_ns":             {pr.fusedNS, "ns"},
		"process.peak_rss_mb":       {peakRSSMB(), "MB"},
	}

	fmt.Fprintf(out, "%s seed %d traced: %d traced and %d untraced units; unit wall median %.4fs traced, %.4fs untraced\n",
		o.workload, o.seed, len(traced), len(plain), median(traced), median(plain))
	printSpanTable(out, stats, n, wallSum/n, nproc())
	printStageSplit(out, pr, eng, searchBusy, n)
	printMetrics(out, ms)
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: ms}, nil
}

// writeTrace writes the last traced unit's spans as Chrome trace JSON.
func writeTrace(rec *obs.Recorder, o options) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.traceDir, "trace-"+o.workload+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (a engineCounts) add(b engineCounts) engineCounts {
	return engineCounts{
		evals: a.evals + b.evals, valid: a.valid + b.valid, cacheHits: a.cacheHits + b.cacheHits,
		improvements: a.improvements + b.improvements, panics: a.panics + b.panics,
		guidedMoves: a.guidedMoves + b.guidedMoves, guidedRestarts: a.guidedRestarts + b.guidedRestarts,
		fullEvals: a.fullEvals + b.fullEvals, evalSeconds: a.evalSeconds + b.evalSeconds,
	}
}

// spanKind groups span names: search spans by algorithm, everything else by
// the prefix before ':' ("layer:conv1" is a "layer" span).
func spanKind(name string) string {
	if strings.HasPrefix(name, "search:") {
		return name
	}
	kind, _, _ := strings.Cut(name, ":")
	return kind
}

// kindStats aggregates the spans of one kind: count, busy time (summed
// durations) and self time (durations minus what child spans cover), in
// seconds.
type kindStats struct {
	count      int
	busy, self float64
}

// spanAgg accumulates span statistics over traced units.
type spanAgg struct {
	kinds map[string]kindStats
}

// add folds one recorder's spans in. A span's self time is its duration
// minus the union of its children's intervals within it, so parallel
// children are not subtracted twice.
func (g *spanAgg) add(spans []obs.SpanRecord) {
	if g.kinds == nil {
		g.kinds = map[string]kindStats{}
	}
	children := map[uint64][]obs.SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		k := g.kinds[spanKind(s.Name)]
		k.count++
		k.busy += float64(s.Dur) / 1e6
		k.self += float64(s.Dur-covered(s, children[s.ID])) / 1e6
		g.kinds[spanKind(s.Name)] = k
	}
}

// covered is the length of the union of the children's intervals clipped
// to the parent's, in microseconds.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	end := parent.Start + parent.Dur
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Dur, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

func (g *spanAgg) byKind() map[string]kindStats {
	if g.kinds == nil {
		return map[string]kindStats{}
	}
	return g.kinds
}

// printSpanTable prints the per-layer table: per traced unit, each span
// kind's count, busy and self time, its share of all self time, and the
// busy time per call. Self times sum to the time spent inside spans; with
// parallel work that can exceed the unit's wall time up to parallel times.
func printSpanTable(out io.Writer, stats map[string]kindStats, units, wall float64, parallel int) {
	var selfSum float64
	for _, s := range stats {
		selfSum += s.self
	}
	fmt.Fprintf(out, "  %-18s %10s %12s %12s %7s %14s\n", "span", "count/unit", "busy s/unit", "self s/unit", "self%", "ns/call")
	for _, kind := range sortedKeys(stats) {
		s := stats[kind]
		share := 0.0
		if selfSum > 0 {
			share = 100 * s.self / selfSum
		}
		fmt.Fprintf(out, "  %-18s %10.1f %12.4f %12.4f %6.1f%% %14.0f\n", kind,
			float64(s.count)/units, s.busy/units, s.self/units, share, 1e9*s.busy/float64(s.count))
	}
	fmt.Fprintf(out, "  self time inside spans: %.4fs per unit = %.2f x unit wall %.4fs (parallel %d)\n",
		selfSum/units, selfSum/units/wall, wall, parallel)
}

// printStageSplit estimates how search time divides between the stages the
// spans cannot separate: sampling, lowering and the kernel per full
// evaluation, and the delta kernel per delta evaluation, each as the
// probe's per-call cost times the traced call count. The remainder is
// everything else inside search spans (moves, commits, bookkeeping).
func printStageSplit(out io.Writer, pr probeResult, eng engineCounts, searchBusy, units float64) {
	if searchBusy <= 0 {
		return
	}
	full, deltas := float64(eng.fullEvals), float64(eng.evals-eng.fullEvals)
	stages := []struct {
		name string
		s    float64
	}{
		{"sample", full * pr.sampleNS / 1e9},
		{"lower", full * pr.denseNS / 1e9},
		{"kernel", full * pr.evalNS / 1e9},
		{"delta", deltas * pr.deltaNS / 1e9},
	}
	rest := searchBusy
	fmt.Fprintf(out, "  estimated split of search time (%.0f full, %.0f delta evaluations per unit):", full/units, deltas/units)
	for _, st := range stages {
		rest -= st.s
		fmt.Fprintf(out, " %s %.1f%%", st.name, 100*st.s/searchBusy)
	}
	fmt.Fprintf(out, " rest %.1f%%\n", 100*rest/searchBusy)
}
