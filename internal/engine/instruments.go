package engine

import (
	"sort"
	"sync"
	"time"

	"ruby/internal/obs"
)

// Instruments is the full-fidelity Metrics implementation: the atomic
// Counters plus fixed-bucket histograms for the distributions the counters
// collapse — sampled evaluation latency, batch latency, per-search wall time
// and per-search best objective value — and an optional slow-event logger.
// All parts are individually exported so callers can register them with an
// obs.Registry (see Register) or read snapshots directly.
type Instruments struct {
	// Counters is the counting core (never nil from NewInstruments).
	Counters *Counters
	// EvalHist records sampled model-evaluation latency in seconds.
	EvalHist *obs.Histogram
	// BatchHist records EvaluateBatch wall time in seconds.
	BatchHist *obs.Histogram
	// SearchHist records per-search wall time in seconds.
	SearchHist *obs.Histogram
	// ObjectiveHist records each completed search's best objective value.
	ObjectiveHist *obs.Histogram
	// Slow optionally warns about slow evaluations and searches; nil
	// disables slow-event logging.
	Slow *obs.SlowLog

	// winsMu guards wins, the per-member portfolio win counts. A win is
	// recorded once per completed portfolio search, so a mutex (not an
	// atomic) is fine here.
	//ruby:guards wins
	winsMu sync.Mutex
	wins   map[string]int64
}

// NewInstruments builds instruments with the default bucket layouts.
func NewInstruments() *Instruments {
	return &Instruments{
		Counters: &Counters{},
		EvalHist: obs.NewHistogram("ruby_eval_latency_seconds",
			"Model evaluation latency (sampled; see engine.Config.LatencySampleEvery).",
			obs.LatencyBuckets()),
		BatchHist: obs.NewHistogram("ruby_batch_latency_seconds",
			"EvaluateBatch wall time.", obs.LatencyBuckets()),
		SearchHist: obs.NewHistogram("ruby_search_wall_seconds",
			"Per-search wall time.", obs.LatencyBuckets()),
		ObjectiveHist: obs.NewHistogram("ruby_search_best_edp",
			"Best objective value (EDP by default) per completed search.",
			obs.EDPBuckets()),
	}
}

// Evaluation implements Metrics.
func (in *Instruments) Evaluation(valid bool) { in.Counters.Evaluation(valid) }

// EvalLatency implements Metrics.
//
//ruby:hotpath
func (in *Instruments) EvalLatency(d time.Duration) {
	in.EvalHist.ObserveDuration(d)
	in.Slow.Eval(d)
}

// BatchLatency implements Metrics.
func (in *Instruments) BatchLatency(d time.Duration, _ int) { in.BatchHist.ObserveDuration(d) }

// Improvement implements Metrics.
func (in *Instruments) Improvement(evals int64, value float64) {
	in.Counters.Improvement(evals, value)
}

// BestObjective implements Metrics.
func (in *Instruments) BestObjective(v float64) { in.ObjectiveHist.Observe(v) }

// SearchDone implements Metrics.
func (in *Instruments) SearchDone(wall time.Duration, evaluated, valid int64) {
	in.Counters.SearchDone(wall, evaluated, valid)
	in.SearchHist.ObserveDuration(wall)
	in.Slow.Search(wall, evaluated, valid)
}

// Panic implements Metrics.
func (in *Instruments) Panic() { in.Counters.Panic() }

// GuidedMove implements GuidedMetrics.
//
//ruby:hotpath
func (in *Instruments) GuidedMove() { in.Counters.GuidedMove() }

// GuidedRestart implements GuidedMetrics.
func (in *Instruments) GuidedRestart() { in.Counters.GuidedRestart() }

// PortfolioWin implements PortfolioMetrics: member produced the incumbent
// of one completed portfolio search.
func (in *Instruments) PortfolioWin(member string) {
	in.winsMu.Lock()
	if in.wins == nil {
		in.wins = make(map[string]int64)
	}
	in.wins[member]++
	in.winsMu.Unlock()
}

// PortfolioWins returns a copy of the per-member win counts.
func (in *Instruments) PortfolioWins() map[string]int64 {
	in.winsMu.Lock()
	defer in.winsMu.Unlock()
	out := make(map[string]int64, len(in.wins))
	for k, v := range in.wins {
		out[k] = v
	}
	return out
}

// portfolioWinSamples renders the win counts as sorted label samples for
// the ruby_portfolio_wins series.
func (in *Instruments) portfolioWinSamples() []obs.Sample {
	in.winsMu.Lock()
	defer in.winsMu.Unlock()
	names := make([]string, 0, len(in.wins))
	for k := range in.wins {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]obs.Sample, len(names))
	for i, k := range names {
		out[i] = obs.Sample{LabelValue: k, Value: float64(in.wins[k])}
	}
	return out
}

// Register adds every counter and histogram to reg under stable Prometheus
// names (ruby_evaluations_total, ruby_valid_total, ...), so one call wires a
// service's whole /v1/metrics exposition.
func (in *Instruments) Register(reg *obs.Registry) {
	c := in.Counters
	reg.Counter("ruby_evaluations_total", "Total mapping evaluations through the engine.",
		func() float64 { return float64(c.Snapshot().Evaluations) })
	reg.Counter("ruby_valid_total", "Evaluations with a valid verdict.",
		func() float64 { return float64(c.Snapshot().Valid) })
	reg.Counter("ruby_improvements_total", "Incumbent-best improvement events.",
		func() float64 { return float64(c.Snapshot().Improvements) })
	reg.Counter("ruby_searches_total", "Completed searches.",
		func() float64 { return float64(c.Snapshot().Searches) })
	reg.Counter("ruby_search_seconds_total", "Summed search wall time in seconds.",
		func() float64 { return c.Snapshot().SearchSeconds })
	reg.Counter("ruby_eval_panics_total", "Recovered model-evaluation panics (incl. retries).",
		func() float64 { return float64(c.Snapshot().Panics) })
	reg.Counter("ruby_guided_moves", "Committed moves of the model-guided searcher.",
		func() float64 { return float64(c.Snapshot().GuidedMoves) })
	reg.Counter("ruby_guided_restarts", "Perturbation restarts of the model-guided searcher.",
		func() float64 { return float64(c.Snapshot().GuidedRestarts) })
	reg.GaugeVec("ruby_portfolio_wins", "Portfolio searches won, by member searcher.",
		"searcher", in.portfolioWinSamples)
	reg.Histogram(in.EvalHist)
	reg.Histogram(in.BatchHist)
	reg.Histogram(in.SearchHist)
	reg.Histogram(in.ObjectiveHist)
}
