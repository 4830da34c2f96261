// Command sdbench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment prints the same series the paper plots;
// absolute times depend on hardware, but the shapes — who wins, by what
// factor, where crossovers fall — are the reproduction target (README.md,
// "Performance", records the measured numbers).
//
// Usage:
//
//	sdbench -list
//	sdbench -exp fig7a [-scale 0.25] [-queries 100] [-seed 1] [-v]
//	sdbench -all -scale 0.1
//	sdbench -json BENCH_sdbench.json [-scale 1] [-queries 64]
//	sdbench -json report.json -baseline BENCH_sdbench.json   # regression gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "", "experiment id to run (e.g. fig7a, table1, ablation-angles)")
		all      = flag.Bool("all", false, "run every experiment")
		jsonOut  = flag.String("json", "", "write the machine-readable micro-benchmark report to this path (\"-\" for stdout)")
		baseline = flag.String("baseline", "", "with -json: diff the fresh report against this committed baseline and exit non-zero on regression")
		scale    = flag.Float64("scale", 1.0, "dataset size multiplier (1.0 = paper scale)")
		queries  = flag.Int("queries", 100, "query points per measurement")
		seed     = flag.Int64("seed", 1, "random seed")
		verbose  = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()

	if *jsonOut != "" {
		// The micro-benchmark default (64 queries) differs from the
		// figures' (100); an explicit -queries always wins.
		qn := 64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "queries" {
				qn = *queries
			}
		})
		if err := runBenchJSON(*jsonOut, *baseline, *scale, qn, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "sdbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, Queries: *queries, Log: log}

	var toRun []bench.Experiment
	switch {
	case *all:
		toRun = bench.All()
	case *exp != "":
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sdbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		toRun = []bench.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "sdbench: need -exp <id>, -all, or -list")
		os.Exit(2)
	}

	for i, e := range toRun {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s: %s (scale %g)\n", e.ID, e.Title, *scale)
		report := e.Run(cfg)
		report.Print(os.Stdout)
	}
}
