package engine

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"ruby/internal/obs"
)

// TestInstrumentsHistogramMatchesCounters is the cross-layer invariant: with
// LatencySampleEvery=1, every model evaluation is timed, so the
// eval-latency histogram's count equals the Counters' evaluation total, and
// bucket counts are consistent (non-negative, summing to the total).
func TestInstrumentsHistogramMatchesCounters(t *testing.T) {
	sp, ev := toy()
	in := NewInstruments()
	eng := Config{Metrics: in, LatencySampleEvery: 1}.New(ev)

	const n = 300
	eng.EvaluateBatch(context.Background(), samples(sp, n, 3))
	wk := eng.NewWorker()
	for _, m := range samples(sp, n, 4) {
		wk.EvaluateShared(m)
	}

	snap := in.Counters.Snapshot()
	if snap.Evaluations != 2*n {
		t.Fatalf("evaluations = %d, want %d", snap.Evaluations, 2*n)
	}
	hist := in.EvalHist.Snapshot()
	if hist.Count != snap.Evaluations {
		t.Fatalf("eval-latency histogram count %d != evaluations %d", hist.Count, snap.Evaluations)
	}
	total := int64(0)
	for _, c := range hist.Counts {
		if c < 0 {
			t.Fatalf("negative bucket count: %v", hist.Counts)
		}
		total += c
	}
	if total != hist.Count {
		t.Fatalf("bucket counts sum to %d, histogram count %d", total, hist.Count)
	}
	if hist.Sum <= 0 {
		t.Fatalf("latency sum = %g, want > 0", hist.Sum)
	}
	if batch := in.BatchHist.Snapshot(); batch.Count != 1 {
		t.Fatalf("batch histogram count = %d, want 1", batch.Count)
	}
}

// TestLatencySampling checks the sampling clock: every Nth full
// evaluation is timed, and negative LatencySampleEvery disables timing.
func TestLatencySampling(t *testing.T) {
	sp, ev := toy()
	in := NewInstruments()
	eng := Config{Metrics: in, LatencySampleEvery: 10}.New(ev)
	wk := eng.NewWorker()
	for _, m := range samples(sp, 100, 5) {
		wk.EvaluateShared(m)
	}
	if got := in.EvalHist.Snapshot().Count; got != 10 {
		t.Fatalf("sampled %d evaluations, want 10 of 100", got)
	}

	off := NewInstruments()
	engOff := Config{Metrics: off, LatencySampleEvery: -1}.New(ev)
	wkOff := engOff.NewWorker()
	for _, m := range samples(sp, 100, 5) {
		wkOff.EvaluateShared(m)
	}
	if got := off.EvalHist.Snapshot().Count; got != 0 {
		t.Fatalf("disabled sampling still recorded %d latencies", got)
	}
	if off.Counters.Snapshot().Evaluations != 100 {
		t.Fatal("counting must be unaffected by disabled latency sampling")
	}
}

func TestInstrumentsSlowLog(t *testing.T) {
	var buf bytes.Buffer
	in := NewInstruments()
	in.Slow = &obs.SlowLog{
		Logger:          slog.New(slog.NewTextHandler(&buf, nil)),
		SearchThreshold: time.Nanosecond,
	}
	in.SearchDone(time.Second, 10, 5)
	if !strings.Contains(buf.String(), "slow search") {
		t.Fatalf("slow search not logged: %s", buf.String())
	}
	if in.Counters.Snapshot().Searches != 1 {
		t.Fatal("SearchDone must still count")
	}
}

func TestInstrumentsRegister(t *testing.T) {
	in := NewInstruments()
	in.Evaluation(true)
	in.BestObjective(1e9)
	reg := obs.NewRegistry()
	in.Register(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ruby_evaluations_total 1",
		"# TYPE ruby_eval_latency_seconds histogram",
		"ruby_search_best_edp_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
