// Command rubyexp regenerates the paper's tables and figures.
//
// Usage:
//
//	rubyexp -exp fig10                # one experiment, quick fidelity
//	rubyexp -exp all -full            # everything at paper fidelity
//	rubyexp -exp fig7b -runs 100      # paper-scale averaging
//
// Experiments: fig7a fig7b fig7c fig7d table1 fig8 fig9 fig10 fig11 fig12
// fig13a fig13b fig14a fig14b; extensions: ext-mobilenetv2 ext-vgg16
// ext-transformer ablations.
//
// Paper-fidelity suite experiments (fig10-fig14) take hours; with
// -checkpoint DIR each completed per-layer search is persisted, and
// re-running the same command after a crash or SIGINT resumes, skipping the
// finished layers with bit-identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ruby/internal/exp"
	"ruby/internal/profile"
	"ruby/internal/sweep"
)

func main() {
	var (
		name    = flag.String("exp", "table1", "experiment id, 'all' (paper set), or 'all-ext' (extensions)")
		full    = flag.Bool("full", false, "paper-fidelity budgets (slow)")
		runs    = flag.Int("runs", 0, "override averaging runs")
		evals   = flag.Int64("evals", 0, "override max evaluations per search")
		algo    = flag.String("search", "", "override the search algorithm for suite experiments (random | guided | hillclimb | anneal | genetic | portfolio)")
		threads = flag.Int("threads", 0, "override search threads")
		seed    = flag.Int64("seed", 0, "override base RNG seed")
		csvDir  = flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")
		svgDir  = flag.String("svg", "", "also render each experiment's figures as SVG files into this directory")
		cpDir   = flag.String("checkpoint", "", "directory for per-layer checkpoints of suite experiments (fig10-fig14); rerunning resumes, skipping completed searches")
		timeout = flag.Duration("timeout", 0, "wall-time budget per experiment; on expiry searches stop and report best-so-far (0 = none)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	cfg := exp.Quick()
	if *full {
		cfg = exp.Full()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *evals > 0 {
		cfg.Opt.MaxEvaluations = *evals
	}
	if *algo != "" {
		cfg.Opt.Algo = *algo
	}
	if *threads > 0 {
		cfg.Opt.Threads = *threads
	}
	if *seed != 0 {
		cfg.Opt.Seed = *seed
	}

	names := []string{*name}
	switch *name {
	case "all":
		names = exp.Names()
	case "all-ext":
		names = exp.ExtensionNames()
	}
	if *cpDir != "" {
		if err := os.MkdirAll(*cpDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
			os.Exit(1)
		}
	}
	// SIGINT/SIGTERM abort the run; with -checkpoint, finished per-layer
	// searches of suite experiments are already on disk for the next run.
	base, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	for _, n := range names {
		start := time.Now()
		ctx := base
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		if *cpDir != "" {
			// One checkpoint file per experiment: layer keys already encode
			// the arch, strategy and search budget, the file split just keeps
			// them small and independently deletable.
			cp, err := sweep.OpenSuiteCheckpoint(filepath.Join(*cpDir, n+".suite.json"))
			if err != nil {
				cancel()
				fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
				os.Exit(1)
			}
			cfg.Checkpoint = cp
		}
		rep, err := exp.Run(ctx, n, cfg)
		if err != nil {
			cancel()
			if base.Err() != nil && *cpDir != "" {
				fmt.Fprintf(os.Stderr, "rubyexp: interrupted during %s; rerun the same command to resume from %s\n", n, *cpDir)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
			os.Exit(1)
		}
		if ctx.Err() != nil && base.Err() == nil {
			fmt.Fprintf(os.Stderr, "rubyexp: %s hit the %v timeout; results reflect only the search budget spent\n", n, *timeout)
		}
		cancel()
		fmt.Println(strings.TrimRight(rep.String(), "\n"))
		fmt.Printf("(%s in %v)\n\n", n, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, n, rep); err != nil {
				fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
				os.Exit(1)
			}
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, n, rep); err != nil {
				fmt.Fprintf(os.Stderr, "rubyexp: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// writeSVGs renders each of an experiment's charts to <dir>/<exp>_<i>.svg.
func writeSVGs(dir, name string, rep *exp.Report) error {
	if len(rep.Charts) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range rep.Charts {
		svg, err := rep.Charts[i].SVG()
		if err != nil {
			return fmt.Errorf("chart %d of %s: %w", i, name, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.svg", name, i))
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVs dumps each of an experiment's tables to <dir>/<exp>_<i>.csv.
func writeCSVs(dir, name string, rep *exp.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tb := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", name, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		tb.CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
