package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
)

// benchJSON is the machine-readable benchmark report written by -json: the
// perf trajectory future PRs compare against (BENCH_sdbench.json at the repo
// root holds the committed baseline). Absolute numbers are
// hardware-dependent; the trajectory of ns/op, the allocs/op invariants, and
// the work counters (fetched/scored/rounds, which are hardware-independent)
// are the regression signal. The -baseline flag diffs a fresh report against
// a committed one and fails on regression — see diff.go for the gate rules.
type benchJSON struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	GoVersion string `json:"go"`
	NumCPU    int    `json:"num_cpu"`
	// NonTestLOC is the repository's non-test Go line count when the report
	// was generated (see countNonTestLOC) — ROADMAP tracks it next to the
	// timings because deleting code at unchanged numbers is a result too.
	// Absent when sdbench did not run from the repository root.
	NonTestLOC int            `json:"non_test_loc,omitempty"`
	Scale      float64        `json:"scale"`
	Workloads  []workloadJSON `json:"workloads"`
}

type workloadJSON struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Dims    int    `json:"dims"`
	K       int    `json:"k"`
	Queries int    `json:"queries"`
	// GOMAXPROCS is the effective value the workload ran under. Parallel
	// workloads elevate it to NumCPU for their measurement, so a report
	// generated in a GOMAXPROCS-restricted environment still exercises —
	// and records — the parallelism it claims to measure.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Per-op figures from testing.Benchmark; for batch workloads one op is
	// the whole batch. AllocsPerOp is -1 when the workload cannot attribute
	// allocations to the measured path (the cluster workload's servers share
	// the process-wide counters); the diff gate skips negative baselines.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Latency percentiles over individually timed requests — reported by the
	// cluster failover workload, where the tail across a leader kill is the
	// signal a mean would hide.
	P50NsPerOp int64 `json:"p50_ns_per_op,omitempty"`
	P99NsPerOp int64 `json:"p99_ns_per_op,omitempty"`
	// QPS is the cluster failover workload's read throughput through the
	// router (requests completed per wall second by the closed-loop client
	// pool).
	QPS float64 `json:"qps,omitempty"`
	// Availability is the cluster failover workload's fraction of reads
	// answered 200 across a measurement window that contains a hard leader
	// kill. The router's retry/failover machinery is what holds it at ~1.0;
	// the diff gate fails if it drops below 0.99 or collapses against the
	// committed baseline.
	Availability float64 `json:"availability,omitempty"`
	// WriteUnavailableMs is the cluster failover workload's write-unavailability
	// window: milliseconds from the hard leader kill to the last failed write
	// probe, after which writes to the killed partition succeed again via the
	// router's automated replica promotion. The diff gate fails if it exceeds
	// an absolute ceiling — promotion that never fires shows up here, not in
	// read availability.
	WriteUnavailableMs float64 `json:"write_unavailable_ms,omitempty"`
	// Work counters averaged over the query set.
	FetchedMean     float64 `json:"fetched_mean,omitempty"`
	ScoredMean      float64 `json:"scored_mean,omitempty"`
	SubproblemsMean float64 `json:"subproblems_mean,omitempty"`
	RoundsMean      float64 `json:"rounds_mean,omitempty"`
	// SweptMean is the live rows of the sealed segments a query swept
	// (scored, or skipped with their block), and SweptSegmentsMean how many
	// segments per query that was. BlocksBoundedMean and BlocksSkippedMean
	// are the zone sweep's blocks bounded and skipped per query. All are
	// absent on workloads that only stream.
	SweptMean         float64 `json:"swept_mean,omitempty"`
	SweptSegmentsMean float64 `json:"swept_segments_mean,omitempty"`
	BlocksBoundedMean float64 `json:"blocks_bounded_mean,omitempty"`
	BlocksSkippedMean float64 `json:"blocks_skipped_mean,omitempty"`
}

const benchJSONSchema = "sdbench/v14"

// countNonTestLOC counts lines the way CI's "Non-test line budget" step
// does: every .go file under root that is not a test, outside benchmark/
// (the repository benchmark, a module of its own) and its .bench_build/
// scratch.
func countNonTestLOC(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel, _ := filepath.Rel(root, path); rel == "benchmark" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		lines += bytes.Count(src, []byte{'\n'})
		return err
	})
	return lines, err
}

// collectStats runs the query set once and averages the counters.
func collectStats(idx *sdquery.SDIndex, queries []sdquery.Query) (w workloadJSON, err error) {
	var total sdquery.QueryStats
	for _, q := range queries {
		_, st, err := idx.TopKWithStats(q)
		if err != nil {
			return w, err
		}
		total.Fetched += st.Fetched
		total.Scored += st.Scored
		total.Swept += st.Swept
		total.SweptSegments += st.SweptSegments
		total.BlocksBounded += st.BlocksBounded
		total.BlocksSkipped += st.BlocksSkipped
		total.Subproblems += st.Subproblems
		total.Rounds += st.Rounds
	}
	qn := float64(len(queries))
	w.FetchedMean = float64(total.Fetched) / qn
	w.ScoredMean = float64(total.Scored) / qn
	w.SweptMean = float64(total.Swept) / qn
	w.SweptSegmentsMean = float64(total.SweptSegments) / qn
	w.BlocksBoundedMean = float64(total.BlocksBounded) / qn
	w.BlocksSkippedMean = float64(total.BlocksSkipped) / qn
	w.SubproblemsMean = float64(total.Subproblems) / qn
	w.RoundsMean = float64(total.Rounds) / qn
	return w, nil
}

// runBenchJSON measures the core micro-workloads and writes the JSON report,
// optionally gating against a committed baseline. Workload sizes follow the
// default evaluation shape (uniform data, mixed roles, U(0,1) weights)
// scaled by -scale.
func runBenchJSON(path, baselinePath string, scale float64, queryCount int, seed int64) error {
	n := int(50_000 * scale)
	if n < 1000 {
		n = 1000
	}
	if queryCount <= 0 {
		queryCount = 64
	}
	const dims, attractive, k = 6, 3, 5
	data := dataset.Generate(dataset.Uniform, n, dims, seed)
	specs, roles := bench.BatchSpecs(dims, attractive, k, queryCount, seed+1)
	queries := make([]sdquery.Query, len(specs))
	for i, sp := range specs {
		queries[i] = sdquery.Query{Point: sp.Point, K: sp.K, Roles: sp.Roles, Weights: sp.Weights}
	}

	report := benchJSON{
		Schema:    benchJSONSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Scale:     scale,
	}
	if _, err := os.Stat("go.mod"); err == nil {
		if report.NonTestLOC, err = countNonTestLOC("."); err != nil {
			return err
		}
	}
	add := func(name string, r testing.BenchmarkResult, stats workloadJSON, procs int) {
		stats.Name = name
		stats.N, stats.Dims, stats.K, stats.Queries = n, dims, k, len(queries)
		stats.GOMAXPROCS = procs
		stats.NsPerOp = r.NsPerOp()
		stats.AllocsPerOp = r.AllocsPerOp()
		stats.BytesPerOp = r.AllocedBytesPerOp()
		report.Workloads = append(report.Workloads, stats)
	}

	// Single-query hot path: TopKAppend into a reused buffer (the
	// zero-allocation guarantee), plus the work counters of the query set.
	idx, err := sdquery.NewSDIndex(data, roles)
	if err != nil {
		return err
	}
	stats, err := collectStats(idx, queries)
	if err != nil {
		return err
	}
	var buf []sdquery.Result
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = idx.TopKAppend(buf[:0], queries[i%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	add("topk/sdindex-append", r, stats, runtime.GOMAXPROCS(0))

	// The allocating convenience API, for the conversion-cost trajectory.
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.TopK(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("topk/sdindex", r, workloadJSON{}, runtime.GOMAXPROCS(0))

	// Batch path: one op = the whole batch, one task per query forked over
	// the index's workers. The workload elevates GOMAXPROCS to NumCPU for its
	// whole lifetime (build, warm-up, stats, measurement): a harness invoked
	// under GOMAXPROCS=1 would otherwise build a one-segment, one-worker
	// index and silently measure nothing parallel.
	if err := func() error {
		prev := runtime.GOMAXPROCS(0)
		procs := prev
		if runtime.NumCPU() > procs {
			procs = runtime.NumCPU()
			runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev) // restored on every path, errors included
		}
		bidx, err := sdquery.NewShardedIndex(data, roles)
		if err != nil {
			return err
		}
		defer bidx.Close()
		if _, err := bidx.BatchTopK(queries); err != nil { // warm pools
			return err
		}
		stats, err := collectStats(bidx, queries)
		if err != nil {
			return err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bidx.BatchTopK(queries); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("batch/topk", r, stats, procs)
		return nil
	}(); err != nil {
		return err
	}

	// Like the batch workload, the cluster workload elevates GOMAXPROCS to
	// NumCPU for its lifetime — it is all concurrent traffic.
	if err := func() error {
		prev := runtime.GOMAXPROCS(0)
		procs := prev
		if runtime.NumCPU() > procs {
			procs = runtime.NumCPU()
			runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
		}
		// Cluster failover: a two-partition replicated cluster behind the
		// scatter-gather router, read under closed-loop load while one
		// leader is hard-killed mid-window. Reports availability (reads
		// answered across the kill) alongside qps and percentiles — the
		// robustness figure the single-node workloads cannot express.
		cw, err := runClusterFailover(scale, len(queries), seed)
		if err != nil {
			return err
		}
		cw.Name = "cluster/failover"
		cw.Queries = len(queries)
		cw.GOMAXPROCS = procs
		report.Workloads = append(report.Workloads, cw)
		return nil
	}(); err != nil {
		return err
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	if baselinePath != "" {
		return diffAgainstBaseline(baselinePath, report)
	}
	return nil
}
