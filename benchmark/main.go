// Command benchmark is the repository's benchmark: four workloads, from a
// library call to a routed cluster, each printing end-to-end metrics (or,
// traced, per-layer metrics) and checking every answer it samples against
// the sequential scan. BENCHMARK.json at the repository root names the
// command, the workloads and the metrics; README.md beside this file says
// why each is there.
//
//	bash benchmark/run.sh --workload serve-hot --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is the timed phase BENCHMARK.json fixes for every workload.
const runSeconds = 20

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "one of lib-topk, serve-distinct, serve-hot, cluster-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare the two sets against BENCHMARK.json's bounds")
	flag.Parse()
	o.trace = trace != 0
	o.sizes = fullSizes
	o.scratch = filepath.Join(".bench_build", "run")
	o.log = os.Stdout
	if flag.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments, or --seconds below 1")
		os.Exit(2)
	}

	if selfcheck {
		if err := runSelfcheck(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSelfcheck runs every workload twice on one seed and fails if the second
// set is worse than the first by more than a metric's bound: two runs of the
// same code must not look like a regression.
func runSelfcheck(o options) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	o.seconds = float64(bf.RunSeconds)
	bad := 0
	for _, w := range bf.Workloads {
		o.workload = w.Name
		var sets [2]*result
		for i := range sets {
			if sets[i], err = execute(o); err != nil {
				return err
			}
			if !sets[i].Correct {
				return fmt.Errorf("%s: verification failed", w.Name)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0].get(m.Name), sets[1].get(m.Name)
			worse := b/a - 1
			if m.Better == "higher" {
				worse = 1 - b/a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(o.log, "%-15s %-14s first %.6g %s, second %.6g %s, second/first %.4f (base: first), bound %.2f: %s\n",
				w.Name, m.Name, a, m.Unit, b, m.Unit, b/a, m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
