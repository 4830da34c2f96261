package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// tinySizes keeps every workload's shape at a size the race detector gets
// through in about a second.
var tinySizes = sizes{
	libRows: 10_000, serveRows: 5_000, warmup: 100 * time.Millisecond, setups: 2,
	writeRate: 200, probe: 16, scanProbe: 8, routed: 8, calib: 1 << 14,
}

// TestNamesMatchBenchmarkJSON holds BENCHMARK.json and the binary's tables
// to the same workloads, metrics, units and directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the binary's default is %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %v in BENCHMARK.json, %v in the binary", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d is %v in BENCHMARK.json, %v in the binary", i, got, perLayer[i])
		}
	}
}

// TestGeneratorDeterministic: the same seed gives byte-identical inputs, a
// different seed different ones.
func TestGeneratorDeterministic(t *testing.T) {
	bodies := func(seed uint64, pool *hotPool) []byte {
		st := newStream(seed, 0, pool)
		var out []byte
		for i := 0; i < 1000; i++ {
			_, body, _ := st.next()
			out = append(append(out, body...), '\n')
		}
		return out
	}
	if !bytes.Equal(bodies(7, nil), bodies(7, nil)) {
		t.Error("distinct stream: same seed, different queries")
	}
	if bytes.Equal(bodies(7, nil), bodies(8, nil)) {
		t.Error("distinct stream: different seeds, same queries")
	}
	if !bytes.Equal(bodies(7, newHotPool(7)), bodies(7, newHotPool(7))) {
		t.Error("hot stream: same seed, different queries")
	}
	a, b := clusteredRows(500, 7), clusteredRows(500, 7)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatalf("clustered rows differ at row %d", i)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced,
// and checks that each emits every metric BENCHMARK.json names for that
// mode, with its unit, that nothing failed, and that the run left no
// goroutines, listeners or directories behind.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			mode := map[bool]string{false: "untraced", true: "traced"}[trace]
			t.Run(name+"/"+mode, func(t *testing.T) {
				if name == wlCluster && runtime.NumCPU() < 2 {
					t.Skip("cluster-mixed needs two CPUs")
				}
				before := runtime.NumGoroutine()
				scratch := t.TempDir()
				res, err := execute(options{workload: name, seed: 3, seconds: 1, trace: trace,
					sizes: tinySizes, scratch: scratch, log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", d.name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(scratch, "trace-"+name+".jsonl")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
				if dirs, _ := filepath.Glob(filepath.Join(scratch, "cluster-*")); len(dirs) > 0 {
					t.Errorf("WAL directories left behind: %v", dirs)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before the run, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}
