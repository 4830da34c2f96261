package sdquery

// One benchmark per table and figure of the paper's evaluation, each running
// the corresponding internal/bench experiment at reduced scale (Go
// benchmarks are repeated by the framework; paper-scale runs belong to
// cmd/sdbench). Micro-benchmarks for the public API follow.

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// benchScale keeps each experiment iteration around a second.
const benchScale = 0.02

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Scale: benchScale, Seed: 1, Queries: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Run(cfg)
	}
}

func BenchmarkFig7a(b *testing.B)  { runExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { runExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { runExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B)  { runExperiment(b, "fig7d") }
func BenchmarkFig7e(b *testing.B)  { runExperiment(b, "fig7e") }
func BenchmarkFig7f(b *testing.B)  { runExperiment(b, "fig7f") }
func BenchmarkFig7g(b *testing.B)  { runExperiment(b, "fig7g") }
func BenchmarkFig7h(b *testing.B)  { runExperiment(b, "fig7h") }
func BenchmarkFig7i(b *testing.B)  { runExperiment(b, "fig7i") }
func BenchmarkFig7j(b *testing.B)  { runExperiment(b, "fig7j") }
func BenchmarkFig8a(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { runExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)  { runExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B)  { runExperiment(b, "fig8d") }
func BenchmarkFig8e(b *testing.B)  { runExperiment(b, "fig8e") }
func BenchmarkFig8f(b *testing.B)  { runExperiment(b, "fig8f") }
func BenchmarkFig8g(b *testing.B)  { runExperiment(b, "fig8g") }
func BenchmarkFig8h(b *testing.B)  { runExperiment(b, "fig8h") }
func BenchmarkFig8i(b *testing.B)  { runExperiment(b, "fig8i") }
func BenchmarkFig8j(b *testing.B)  { runExperiment(b, "fig8j") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

func BenchmarkAblationAngles(b *testing.B)    { runExperiment(b, "ablation-angles") }
func BenchmarkAblationBranching(b *testing.B) { runExperiment(b, "ablation-branching") }
func BenchmarkAblationBulk(b *testing.B)      { runExperiment(b, "ablation-bulk") }
func BenchmarkAblationAlg4(b *testing.B)      { runExperiment(b, "ablation-alg4") }

// --- Micro-benchmarks: per-query cost of the public engines -------------

var benchRoles = []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive}

func benchQueries(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	dims := len(benchRoles)
	out := make([]Query, n)
	for i := range out {
		q := Query{
			Point:   make([]float64, dims),
			K:       5,
			Roles:   benchRoles,
			Weights: make([]float64, dims),
		}
		for d := 0; d < dims; d++ {
			q.Point[d] = rng.Float64()
			q.Weights[d] = rng.Float64()
		}
		out[i] = q
	}
	return out
}

func benchEngine(b *testing.B, build func(data [][]float64) (Engine, error)) {
	b.Helper()
	data := dataset.Generate(dataset.Uniform, 50_000, 6, 1)
	eng, err := build(data)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopK(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySDIndex(b *testing.B) {
	benchEngine(b, func(data [][]float64) (Engine, error) {
		return NewSDIndex(data, []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive})
	})
}

// BenchmarkTopK is the zero-allocation steady-state hot path: TopKAppend
// into a reused buffer on the default workload (50k × 6, k = 5). This is the
// benchmark the BENCH_sdbench.json trajectory records; it must stay at
// 0 allocs/op.
func BenchmarkTopK(b *testing.B) {
	data := dataset.Generate(dataset.Uniform, 50_000, 6, 1)
	idx, err := NewSDIndex(data, []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(64, 2)
	var buf []Result
	for i := 0; i < len(queries); i++ { // warm the context pools
		if buf, err = idx.TopKAppend(buf[:0], queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = idx.TopKAppend(buf[:0], queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryScan(b *testing.B) { benchEngine(b, NewScan) }
func BenchmarkQueryTA(b *testing.B)   { benchEngine(b, NewTA) }
func BenchmarkQueryBRS(b *testing.B) {
	benchEngine(b, func(data [][]float64) (Engine, error) { return NewBRS(data, 0) })
}
func BenchmarkQueryPE(b *testing.B) { benchEngine(b, NewPE) }

func BenchmarkQueryTop1(b *testing.B) {
	data := dataset.Generate(dataset.Uniform, 200_000, 2, 1)
	idx, err := NewTop1Index(data, Top1Config{AttractiveWeight: 1, RepulsiveWeight: 1, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pts := make([][]float64, 64)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.TopK(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch benchmarks --------------------------------------------------
//
// The same batch workload as a serial TopK loop, as one BatchTopK on a
// one-segment index with batch workers (query parallelism only), and on the
// NewShardedIndex defaults at one segment (pure overhead measurement) and at
// GOMAXPROCS segments. At GOMAXPROCS ≥ 4 the batches must beat the loop.

func batchWorkload() ([][]float64, []Role, []Query) {
	data := dataset.Generate(dataset.Uniform, 50_000, 6, 1)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive}
	return data, roles, benchQueries(64, 2)
}

func BenchmarkBatchSerialSDIndex(b *testing.B) {
	data, roles, queries := batchWorkload()
	idx, err := NewSDIndex(data, roles)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := idx.TopK(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchParallelSDIndex(b *testing.B) {
	data, roles, queries := batchWorkload()
	idx, err := NewSDIndex(data, roles, WithWorkers(0))
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.BatchTopK(queries); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkBatchSharded(b *testing.B, shards int) {
	data, roles, queries := batchWorkload()
	idx, err := NewShardedIndex(data, roles, WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.BatchTopK(queries); err != nil { // warm the context pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.BatchTopK(queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSharded1(b *testing.B) { benchmarkBatchSharded(b, 1) }
func BenchmarkBatchSharded(b *testing.B)  { benchmarkBatchSharded(b, 0) } // GOMAXPROCS segments

func BenchmarkBuildSDIndex(b *testing.B) {
	data := dataset.Generate(dataset.Uniform, 20_000, 6, 1)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSDIndex(data, roles); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertSDIndex(b *testing.B) {
	data := dataset.Generate(dataset.Uniform, 20_000, 6, 1)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive, Repulsive, Attractive}
	idx, err := NewSDIndex(data, roles)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if _, err := idx.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}
