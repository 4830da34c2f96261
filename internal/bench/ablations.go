package bench

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/topk"
)

func init() {
	register(Experiment{ID: "ablation-angles",
		Title: "Ablation: querying time vs number of indexed angles (§4.2)",
		Run:   runAblationAngles})
	register(Experiment{ID: "ablation-branching",
		Title: "Ablation: querying time vs branching factor (§4.1)",
		Run:   runAblationBranching})
	register(Experiment{ID: "ablation-bulk",
		Title: "Ablation: leaf capacity (disk-style bulk packing, §4)",
		Run:   runAblationBulk})
	register(Experiment{ID: "ablation-alg4",
		Title: "Ablation: blended-bound stream vs literal Algorithm 4 (§4.2)",
		Run:   runAblationAlg4})
}

// uniformAngles returns m angles evenly spaced across [0°, 90°].
func uniformAngles(m int) []geom.Angle {
	out := make([]geom.Angle, m)
	for i := 0; i < m; i++ {
		deg := 90 * float64(i) / float64(m-1)
		a, err := geom.AngleFromDegrees(deg)
		if err != nil {
			panic(err)
		}
		out[i] = a
	}
	return out
}

// runAblationAngles: more indexed angles narrow the Claim-6 bracket (less
// θ_u over-fetching) at the cost of memory. The paper asserts five uniform
// angles suffice; this sweep shows the trade-off.
func runAblationAngles(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims, k = 2, 5
	roles := rolesSplit(dims, 1)
	n := cfg.scaled(1_000_000)
	data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
	specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
	timeSeries := Series{Name: "query ms"}
	memSeries := Series{Name: "index MB"}
	for _, m := range []int{2, 3, 5, 9, 17} {
		eng := newSDEngine(data, roles, topk.Config{Angles: uniformAngles(m)})
		ms := runQueries(eng, specs)
		timeSeries.X = append(timeSeries.X, float64(m))
		timeSeries.Y = append(timeSeries.Y, ms)
		memSeries.X = append(memSeries.X, float64(m))
		memSeries.Y = append(memSeries.Y, float64(eng.Bytes())/(1<<20))
		cfg.logf("ablation-angles m=%d: %.1f ms, %.1f MB", m, ms, float64(eng.Bytes())/(1<<20))
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Indexed angle count (2-d uniform, n=%d, k=5)", n),
		XLabel: "angles", YLabel: "total ms / MB", Series: []Series{timeSeries, memSeries},
	}
}

// runAblationBranching: query time against fan-out (complements Figure 8i's
// memory view).
func runAblationBranching(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims, k = 2, 5
	roles := rolesSplit(dims, 1)
	n := cfg.scaled(1_000_000)
	data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
	specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
	s := Series{Name: "SD-Index topK"}
	for _, b := range []int{2, 4, 8, 16, 32, 64} {
		eng := newSDEngine(data, roles, topk.Config{Branching: b})
		ms := runQueries(eng, specs)
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, ms)
		cfg.logf("ablation-branching b=%d: %.1f ms", b, ms)
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Branching factor (2-d uniform, n=%d, k=5)", n),
		XLabel: "branching", YLabel: "total ms", Series: []Series{s},
	}
}

// runAblationAlg4 compares the two arbitrary-weight query paths over the
// same §4 tree: the default single merge over λ/μ-blended node bounds, and
// the paper's literal Algorithm 4 (θ_l top set progressively covered by a
// θ_u prefix). Identical answers; the blended path avoids the θ_u
// over-fetch.
func runAblationAlg4(cfg Config) Report {
	cfg = cfg.withDefaults()
	rng := newWeightRNG(cfg.Seed + 5)
	sizes := []int{250_000, 500_000, 1_000_000}
	blended := Series{Name: "blended bounds"}
	alg4 := Series{Name: "Algorithm 4"}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		data := dataset.Generate(dataset.Uniform, n, 2, cfg.Seed)
		pts := make([]geom.Point, n)
		for i, p := range data {
			pts[i] = geom.Point{ID: i, X: p[0], Y: p[1]}
		}
		idx, err := topk.Build(pts, topk.Config{LeafCap: 64})
		if err != nil {
			panic(err)
		}
		queries := dataset.Queries(cfg.Queries, 2, cfg.Seed+2)
		weights := make([][2]float64, cfg.Queries)
		for i := range weights {
			weights[i] = [2]float64{rng.Float64() + 1e-6, rng.Float64() + 1e-6}
		}
		run := func(alg4Path bool) float64 {
			return timeMS(func() {
				for i, q := range queries {
					qp := geom.Point{X: q[0], Y: q[1]}
					var st *topk.Stream
					var err error
					if alg4Path {
						st, err = idx.StreamAlg4(qp, weights[i][0], weights[i][1])
					} else {
						st, err = idx.Stream(qp, weights[i][0], weights[i][1])
					}
					if err != nil {
						panic(err)
					}
					for j := 0; j < 5; j++ {
						if _, ok := st.Next(); !ok {
							break
						}
					}
					st.Close()
				}
			})
		}
		blended.X = append(blended.X, float64(n))
		blended.Y = append(blended.Y, run(false))
		alg4.X = append(alg4.X, float64(n))
		alg4.Y = append(alg4.Y, run(true))
		cfg.logf("ablation-alg4 n=%d: blended %.2f ms, alg4 %.2f ms",
			n, blended.Y[len(blended.Y)-1], alg4.Y[len(alg4.Y)-1])
	}
	return &SeriesReport{
		Title:  "Arbitrary-weight query paths (2-d uniform, k=5)",
		XLabel: "n", YLabel: "total ms", Series: []Series{blended, alg4},
	}
}

// runAblationBulk: leaf capacity sweep — single-point leaves (the paper's
// in-memory layout) against the disk-style packed leaves.
func runAblationBulk(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims, k = 2, 5
	roles := rolesSplit(dims, 1)
	n := cfg.scaled(1_000_000)
	data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
	specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
	timeSeries := Series{Name: "query ms"}
	memSeries := Series{Name: "index MB"}
	for _, lc := range []int{1, 4, 16, 64} {
		eng := newSDEngine(data, roles, topk.Config{LeafCap: lc})
		ms := runQueries(eng, specs)
		timeSeries.X = append(timeSeries.X, float64(lc))
		timeSeries.Y = append(timeSeries.Y, ms)
		memSeries.X = append(memSeries.X, float64(lc))
		memSeries.Y = append(memSeries.Y, float64(eng.Bytes())/(1<<20))
		cfg.logf("ablation-bulk leaf=%d: %.1f ms, %.1f MB", lc, ms, float64(eng.Bytes())/(1<<20))
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Leaf capacity (2-d uniform, n=%d, k=5)", n),
		XLabel: "leaf capacity", YLabel: "total ms / MB", Series: []Series{timeSeries, memSeries},
	}
}
