// Package exp reproduces every table and figure of the paper's evaluation:
// the mapspace-quality convergence study (Fig. 7), the mapspace-size table
// (Table I), the padding comparison (Fig. 8), the AlexNet handcrafted-mapping
// study (Fig. 9), the per-layer ResNet-50 and DeepBench comparisons on
// Eyeriss-like and Simba-like architectures (Figs. 10-12), and the
// architectural design-space exploration (Figs. 13-14).
//
// Each runner returns both structured results and a rendered stats.Table with
// the same rows/series the paper reports. Budgets are configurable so the
// same code serves quick regression tests, testing.B benchmarks, and
// full-fidelity CLI runs.
package exp

import (
	"context"
	"fmt"

	"ruby/internal/engine"
	"ruby/internal/nest"
	"ruby/internal/search"
	"ruby/internal/sweep"
)

// Config tunes experiment fidelity.
type Config struct {
	// Opt is the base search configuration (seed, threads, budgets).
	Opt search.Options
	// Runs averages stochastic-search experiments over this many seeds
	// (the paper uses 100 for Fig. 7). Minimum 1.
	Runs int
	// Engine configures the evaluation pipeline (metrics hook, workers)
	// each experiment builds per evaluator. The zero value is a transparent
	// pass-through, so results for fixed seeds are unchanged by default.
	Engine engine.Config
	// Checkpoint optionally persists per-layer progress of the suite-based
	// experiments (Figs. 10-14), so an interrupted rubyexp run resumes by
	// skipping completed layers. Experiments that do not run suites ignore
	// it.
	Checkpoint *sweep.SuiteCheckpoint
}

func (c Config) withDefaults() Config {
	if c.Runs < 1 {
		c.Runs = 1
	}
	return c
}

// Quick returns a configuration sized for tests and benchmarks: small
// evaluation budgets, few averaging runs, deterministic seeds.
func Quick() Config {
	return Config{
		Opt:  search.Options{Seed: 1, Threads: 4, MaxEvaluations: 2500},
		Runs: 2,
	}
}

// Full returns the paper-fidelity configuration: termination after 3000
// consecutive non-improving valid mappings across 24 threads, 10 averaging
// runs (the paper's 100 is available via -runs).
func Full() Config {
	return Config{
		Opt:  search.Options{Seed: 1, Threads: 24, ConsecutiveNoImprove: 3000, MaxEvaluations: 200_000},
		Runs: 10,
	}
}

// seeded derives a per-run option set.
func (c Config) seeded(run int) search.Options {
	o := c.Opt
	o.Seed = c.Opt.Seed + int64(run)*1_000_003
	return o
}

// newEngine builds the evaluation pipeline an experiment routes ev through.
func (c Config) newEngine(ev *nest.Evaluator) *engine.Engine {
	return c.Engine.New(ev)
}

// suiteOptions bundles the experiment's search and engine configuration for
// suite runs (Figs. 10-14).
func (c Config) suiteOptions() sweep.SuiteOptions {
	return sweep.SuiteOptions{Search: c.Opt, Engine: c.Engine, Checkpoint: c.Checkpoint}
}

// Names lists the experiment identifiers accepted by Run (cmd/rubyexp).
func Names() []string {
	return []string{
		"fig7a", "fig7b", "fig7c", "fig7d",
		"table1", "fig8", "fig9",
		"fig10", "fig11", "fig12",
		"fig13a", "fig13b", "fig14a", "fig14b",
	}
}

// Run executes one experiment by identifier and returns its report.
// Cancellation aborts the in-flight searches promptly and surfaces ctx's
// error (stochastic experiments may instead return a best-effort report
// built from the evaluations finished so far).
func Run(ctx context.Context, name string, cfg Config) (*Report, error) {
	switch name {
	case "fig7a", "fig7b", "fig7c", "fig7d":
		return fig7(ctx, name[4], cfg)
	case "table1":
		return Table1(cfg)
	case "fig8":
		return fig8(ctx, cfg)
	case "fig9":
		return fig9(ctx, cfg)
	case "fig10":
		return fig10(ctx, cfg)
	case "fig11":
		return fig11(ctx, cfg)
	case "fig12":
		return fig12(ctx, cfg)
	case "fig13a":
		return fig13(ctx, SuiteResNet, cfg)
	case "fig13b":
		return fig13(ctx, SuiteDeepBench, cfg)
	case "fig14a":
		return fig14(ctx, SuiteResNet, cfg)
	case "fig14b":
		return fig14(ctx, SuiteDeepBench, cfg)
	default:
		for _, ext := range ExtensionNames() {
			if name == ext {
				return runExtension(ctx, name, cfg)
			}
		}
		return nil, fmt.Errorf("exp: unknown experiment %q (want one of %v or %v)",
			name, Names(), ExtensionNames())
	}
}

// Suite selects a workload suite for the sweep experiments.
type Suite string

const (
	SuiteResNet    Suite = "resnet50"
	SuiteDeepBench Suite = "deepbench"
)
