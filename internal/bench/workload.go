package bench

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/top1"
)

// rolesSplit assigns the first `attractive` dimensions to S and the rest to
// D (the evaluation varies only the counts, not the positions).
func rolesSplit(dims, attractive int) []query.Role {
	roles := make([]query.Role, dims)
	for d := range roles {
		if d < attractive {
			roles[d] = query.Attractive
		} else {
			roles[d] = query.Repulsive
		}
	}
	return roles
}

// makeSpecs draws the paper's workload: query points from a uniform
// distribution, weights from U(0, 1), fixed k.
func makeSpecs(roles []query.Role, k, count int, seed int64) []query.Spec {
	dims := len(roles)
	rng := rand.New(rand.NewSource(seed))
	points := dataset.Queries(count, dims, seed+1)
	specs := make([]query.Spec, count)
	for i := range specs {
		w := make([]float64, dims)
		for d := range w {
			w[d] = rng.Float64()
		}
		specs[i] = query.Spec{Point: points[i], K: k, Roles: roles, Weights: w}
	}
	return specs
}

// BatchSpecs exposes the evaluation's query workload to external drivers —
// cmd/sdbench's shard-count sweep runs it through the public ShardedIndex,
// which this internal package cannot import. The roles split the first
// `attractive` dimensions into S and the rest into D; query points are
// uniform and weights U(0, 1), exactly as makeSpecs draws them.
func BatchSpecs(dims, attractive, k, count int, seed int64) ([]query.Spec, []query.Role) {
	roles := rolesSplit(dims, attractive)
	return makeSpecs(roles, k, count, seed), roles
}

// timeMS runs f and returns elapsed wall time in milliseconds.
func timeMS(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// engine is any top-k engine in the module.
type engine interface {
	TopK(query.Spec) ([]query.Result, error)
}

// appendEngine is the zero-allocation query surface (core.Engine): results
// appended into a reused buffer, no per-query garbage.
type appendEngine interface {
	TopKAppend([]query.Result, query.Spec) ([]query.Result, core.Stats, error)
}

// runQueries executes all specs and returns total wall milliseconds.
// Engines exposing the append path are measured through it with a reused
// buffer, so the figures time the algorithms rather than the allocator.
// Engines are pre-validated by construction; errors here are programming
// errors in the harness and panic.
func runQueries(eng engine, specs []query.Spec) float64 {
	if ae, ok := eng.(appendEngine); ok {
		var buf []query.Result
		return timeMS(func() {
			for _, s := range specs {
				var err error
				buf, _, err = ae.TopKAppend(buf[:0], s)
				if err != nil {
					panic(err)
				}
			}
		})
	}
	return timeMS(func() {
		for _, s := range specs {
			if _, err := eng.TopK(s); err != nil {
				panic(err)
			}
		}
	})
}

// streamOnly pins every engine this package builds to pure streaming: the
// figures and ablations reproduce the paper's index — sorted accesses against
// baselines' — and the served engine answers every segment with a zone sweep
// of its columns instead.
var streamOnly = core.RuntimeOptions{StreamOnly: true}

// newSDEngine builds the SD-Index with the engine's tree defaults (branching
// 8, 64-point packed leaves, the five §6.1 angles), streaming only.
func newSDEngine(data [][]float64, roles []query.Role) *core.Engine {
	eng, err := core.New(data, core.Config{Roles: roles, RuntimeOptions: streamOnly})
	if err != nil {
		panic(err)
	}
	return eng
}

// multiTop1 is the fixed-parameter §3 structure lifted to d dimensions the
// same way the §5 engine lifts the top-k tree: one 2D envelope index per
// paired (repulsive, attractive) dimension couple, aggregated by threshold.
// It answers the fixed workload (k and weights chosen at build time) that
// the top-1 experiments of Figures 8b/8e/8h/8j measure.
type multiTop1 struct {
	pairs []core.Pair
	idxs  []*top1.Index
	data  [][]float64
	k     int
}

func newMultiTop1(data [][]float64, roles []query.Role, k int) *multiTop1 {
	var rep, attr []int
	for d, r := range roles {
		if r == query.Repulsive {
			rep = append(rep, d)
		} else if r == query.Attractive {
			attr = append(attr, d)
		}
	}
	n := len(rep)
	if len(attr) < n {
		n = len(attr)
	}
	m := &multiTop1{data: data, k: k}
	for i := 0; i < n; i++ {
		pr := core.Pair{Rep: rep[i], Attr: attr[i]}
		pts := make([]geom.Point, len(data))
		for j, p := range data {
			pts[j] = geom.Point{ID: j, X: p[pr.Attr], Y: p[pr.Rep]}
		}
		idx, err := top1.Build(pts, top1.Config{Alpha: 1, Beta: 1, K: k})
		if err != nil {
			panic(err)
		}
		m.pairs = append(m.pairs, pr)
		m.idxs = append(m.idxs, idx)
	}
	return m
}

func (m *multiTop1) insert(id int, p []float64) {
	for i, pr := range m.pairs {
		if err := m.idxs[i].Insert(geom.Point{ID: id, X: p[pr.Attr], Y: p[pr.Rep]}); err != nil {
			panic(err)
		}
	}
}

func (m *multiTop1) bytes() int {
	total := 0
	for _, idx := range m.idxs {
		total += idx.RegionBytes()
	}
	return total
}

// newWeightRNG seeds the weight generator used by experiments that draw
// α, β ~ U(0, 1) outside makeSpecs.
func newWeightRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
