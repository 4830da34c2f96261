package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline/brs"
	"repro/internal/baseline/pe"
	"repro/internal/baseline/scan"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/top1"
	"repro/internal/topk"
)

func init() {
	register(Experiment{ID: "fig8a",
		Title: "Fig 8a: querying cost growth with updates (6-d, SD-Index top-k)",
		Run:   runFig8Updates})
	register(Experiment{ID: "fig8b",
		Title: "Fig 8b: insertion cost vs dataset size (6-d)",
		Run:   runFig8Insert})
	register(Experiment{ID: "fig8c",
		Title: "Fig 8c: querying time vs dataset size (2-d uniform, SD-Index top-k)",
		Run: func(cfg Config) Report {
			return runFig82D(cfg, dataset.Uniform)
		}})
	register(Experiment{ID: "fig8d",
		Title: "Fig 8d: querying time vs dataset size (2-d correlated, SD-Index top-k)",
		Run: func(cfg Config) Report {
			return runFig82D(cfg, dataset.Correlated)
		}})
	register(Experiment{ID: "fig8e",
		Title: "Fig 8e: top-1 querying time vs dataset size (2-d, all distributions)",
		Run:   runFig8Top1})
	register(Experiment{ID: "fig8f",
		Title: "Fig 8f: querying time vs k (2-d uniform, 10M points)",
		Run: func(cfg Config) Report {
			return runFig8K2D(cfg, dataset.Uniform)
		}})
	register(Experiment{ID: "fig8g",
		Title: "Fig 8g: querying time vs k (2-d correlated, 10M points)",
		Run: func(cfg Config) Report {
			return runFig8K2D(cfg, dataset.Correlated)
		}})
	register(Experiment{ID: "fig8h",
		Title: "Fig 8h: memory footprint vs dataset size (6-d)",
		Run:   runFig8Memory})
	register(Experiment{ID: "fig8i",
		Title: "Fig 8i: memory footprint vs branching factor (SD-Index top-k)",
		Run:   runFig8Branching})
	register(Experiment{ID: "fig8j",
		Title: "Fig 8j: index construction time vs dataset size (6-d)",
		Run:   runFig8Construction})
}

// runFig8Updates: build the 6-d SD-Index, measure the query batch, then
// interleave random deletions and insertions (equal numbers, constant index
// size) and re-measure at checkpoints. "SD-Index" is the cost without
// updates; "SD-Index*" after updates.
func runFig8Updates(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims, k = 6, 5
	n := cfg.scaled(100_000)
	roles := rolesSplit(dims, 3)
	checkpoints := []int{0, 250, 500, 750, 1000}
	var series []Series
	for _, dist := range []dataset.Distribution{dataset.Uniform, dataset.Correlated} {
		data := dataset.Generate(dist, n, dims, cfg.Seed)
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		eng := newSDEngine(data, roles, topk.Config{})
		base := runQueries(eng, specs)
		noUpd := Series{Name: fmt.Sprintf("SD-Index %s", dist)}
		withUpd := Series{Name: fmt.Sprintf("SD-Index* %s", dist)}
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		live := make([]int, len(data))
		for i := range live {
			live[i] = i
		}
		done := 0
		for _, cp := range checkpoints {
			for done < cp {
				// one delete + one insert keeps the size constant
				vi := rng.Intn(len(live))
				eng.Remove(live[vi])
				p := make([]float64, dims)
				for d := range p {
					p[d] = rng.Float64()
				}
				id, err := eng.Insert(p)
				if err != nil {
					panic(err)
				}
				live[vi] = id
				done++
			}
			ms := runQueries(eng, specs)
			noUpd.X = append(noUpd.X, float64(cp))
			noUpd.Y = append(noUpd.Y, base)
			withUpd.X = append(withUpd.X, float64(cp))
			withUpd.Y = append(withUpd.Y, ms)
			cfg.logf("fig8a %s updates=%d: %.1f ms (base %.1f)", dist, cp, ms, base)
		}
		series = append(series, noUpd, withUpd)
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying cost after updates (6-d, n=%d, k=5)", n),
		XLabel: "deletions+insertions", YLabel: "total ms", Series: series,
	}
}

// runFig8Insert: time to insert 1000 points into each index built over n
// 6-d points.
func runFig8Insert(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims = 6
	const batch = 1000
	roles := rolesSplit(dims, 3)
	sizes := []int{200_000, 400_000, 600_000, 800_000, 1_000_000}
	methods := []string{"SD-Index top1", "SD-Index topK", "BRS", "PE"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
		inserts := dataset.Generate(dataset.Uniform, batch, dims, cfg.Seed+3)
		for i, m := range methods {
			var ms float64
			switch m {
			case "SD-Index top1":
				idx := newMultiTop1(data, roles, 1)
				ms = timeMS(func() {
					for j, p := range inserts {
						idx.insert(n+j, p)
					}
				})
			case "SD-Index topK":
				eng := newSDEngine(data, roles, topk.Config{})
				ms = timeMS(func() {
					for _, p := range inserts {
						if _, err := eng.Insert(p); err != nil {
							panic(err)
						}
					}
				})
			case "BRS":
				eng, err := brs.New(data)
				if err != nil {
					panic(err)
				}
				ms = timeMS(func() {
					for _, p := range inserts {
						if err := eng.Insert(p); err != nil {
							panic(err)
						}
					}
				})
			case "PE":
				eng, err := pe.New(data)
				if err != nil {
					panic(err)
				}
				ms = timeMS(func() {
					for _, p := range inserts {
						if err := eng.Insert(p); err != nil {
							panic(err)
						}
					}
				})
			}
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig8b n=%d %s: %.1f ms for %d inserts", n, m, ms, batch)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Insertion cost (6-d uniform, %d inserts)", batch),
		XLabel: "n", YLabel: "total ms", Series: series,
	}
}

// runFig82D: the 2-d subproblem in isolation, n swept to ten million.
func runFig82D(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const dims, k = 2, 5
	roles := rolesSplit(dims, 1)
	sizes := []int{2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000}
	methods := []string{"Sequential Scan", "SD-Index topK", "TA", "BRS"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		cfg.logf("fig8cd: generating %d 2-d %s points", n, dist)
		data := dataset.Generate(dist, n, dims, cfg.Seed)
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		for i, m := range methods {
			name := m
			if name == "SD-Index topK" {
				name = "SD-Index"
			}
			ms := timeMethod(cfg, name, data, roles, specs)
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig8cd n=%d %s: %.1f ms", n, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs dataset size (2-d %s, k=5)", dist),
		XLabel: "n", YLabel: "total ms", Series: series,
	}
}

// runFig8Top1: the §3 fixed-parameter index (k=1, α=β=1) against scan on
// all three distributions.
func runFig8Top1(cfg Config) Report {
	cfg = cfg.withDefaults()
	sizes := []int{2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000}
	dists := []dataset.Distribution{dataset.Uniform, dataset.Correlated, dataset.AntiCorrelated}
	series := make([]Series, 1+len(dists))
	series[0].Name = "Sequential Scan"
	for i, d := range dists {
		series[i+1].Name = fmt.Sprintf("SD-Index top1 %s", d)
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		queries := dataset.Queries(cfg.Queries, 2, cfg.Seed+2)
		var scanMS float64
		for di, dist := range dists {
			data := dataset.Generate(dist, n, 2, cfg.Seed)
			pts := make([]geom.Point, n)
			for i, p := range data {
				pts[i] = geom.Point{ID: i, X: p[0], Y: p[1]}
			}
			idx, err := top1.Build(pts, top1.Config{Alpha: 1, Beta: 1, K: 1})
			if err != nil {
				panic(err)
			}
			ms := timeMS(func() {
				for _, q := range queries {
					idx.Query(geom.Point{X: q[0], Y: q[1]})
				}
			})
			series[di+1].X = append(series[di+1].X, float64(n))
			series[di+1].Y = append(series[di+1].Y, ms)
			cfg.logf("fig8e n=%d top1 %s: %.3f ms", n, dist, ms)
			if dist == dataset.Uniform {
				eng, err := scan.New(data)
				if err != nil {
					panic(err)
				}
				specs := make([]query.Spec, len(queries))
				for i, q := range queries {
					specs[i] = query.Spec{Point: q, K: 1,
						Roles:   rolesSplit(2, 1),
						Weights: []float64{1, 1}}
				}
				scanMS = runQueries(eng, specs)
				cfg.logf("fig8e n=%d scan: %.1f ms", n, scanMS)
			}
		}
		series[0].X = append(series[0].X, float64(n))
		series[0].Y = append(series[0].Y, scanMS)
	}
	return &SeriesReport{
		Title:  "Top-1 querying time vs dataset size (2-d, fixed k=1, α=β=1)",
		XLabel: "n", YLabel: "total ms", Series: series,
	}
}

// runFig8K2D: k swept on ten million 2-d points.
func runFig8K2D(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const dims = 2
	roles := rolesSplit(dims, 1)
	n := cfg.scaled(10_000_000)
	cfg.logf("fig8fg: generating %d 2-d %s points", n, dist)
	data := dataset.Generate(dist, n, dims, cfg.Seed)
	methods := []string{"Sequential Scan", "SD-Index", "TA", "BRS"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, k := range []int{5, 25, 50, 75, 100} {
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		for i, m := range methods {
			ms := timeMethod(cfg, m, data, roles, specs)
			series[i].X = append(series[i].X, float64(k))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig8fg k=%d %s: %.1f ms", k, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs k (2-d %s, n=%d)", dist, n),
		XLabel: "k", YLabel: "total ms", Series: series,
	}
}

// runFig8Memory: index bytes vs n on 6-d data; top-k once (distribution
// independent) and top-1 per distribution.
func runFig8Memory(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims = 6
	roles := rolesSplit(dims, 3)
	sizes := []int{200_000, 400_000, 600_000, 800_000, 1_000_000}
	dists := []dataset.Distribution{dataset.Uniform, dataset.Correlated, dataset.AntiCorrelated}
	series := make([]Series, 1+len(dists))
	series[0].Name = "SD-Index topK"
	for i, d := range dists {
		series[i+1].Name = fmt.Sprintf("SD-Index top1 %s", d)
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		dataU := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
		eng := newSDEngine(dataU, roles, topk.Config{})
		mb := float64(eng.Bytes()) / (1 << 20)
		series[0].X = append(series[0].X, float64(n))
		series[0].Y = append(series[0].Y, mb)
		cfg.logf("fig8h n=%d topK: %.1f MB", n, mb)
		for di, dist := range dists {
			data := dataU
			if dist != dataset.Uniform {
				data = dataset.Generate(dist, n, dims, cfg.Seed)
			}
			idx := newMultiTop1(data, roles, 1)
			mb := float64(idx.bytes()) / (1 << 20)
			series[di+1].X = append(series[di+1].X, float64(n))
			series[di+1].Y = append(series[di+1].Y, mb)
			cfg.logf("fig8h n=%d top1 %s: %.3f MB", n, dist, mb)
		}
	}
	return &SeriesReport{
		Title:  "Memory footprint vs dataset size (6-d)",
		XLabel: "n", YLabel: "MB", Series: series,
	}
}

// runFig8Branching: top-k tree bytes vs branching factor, in the paper's
// single-point-leaf layout (where fan-out determines the internal node
// count) with the packed-leaf default alongside.
func runFig8Branching(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims = 6
	roles := rolesSplit(dims, 3)
	n := cfg.scaled(200_000)
	data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
	leaf1 := Series{Name: "SD-Index topK leaf=1"}
	leaf64 := Series{Name: "SD-Index topK leaf=64"}
	for _, b := range []int{2, 5, 10, 20, 30, 40, 50} {
		for _, variant := range []struct {
			s    *Series
			leaf int
		}{{&leaf1, 1}, {&leaf64, 64}} {
			eng := newSDEngine(data, roles, topk.Config{Branching: b, LeafCap: variant.leaf})
			mb := float64(eng.Bytes()) / (1 << 20)
			variant.s.X = append(variant.s.X, float64(b))
			variant.s.Y = append(variant.s.Y, mb)
			cfg.logf("fig8i b=%d leaf=%d: %.1f MB", b, variant.leaf, mb)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Memory footprint vs branching factor (6-d uniform, n=%d)", n),
		XLabel: "branching", YLabel: "MB", Series: []Series{leaf1, leaf64},
	}
}

// runFig8Construction: wall time to build each index over n 6-d points.
func runFig8Construction(cfg Config) Report {
	cfg = cfg.withDefaults()
	const dims = 6
	roles := rolesSplit(dims, 3)
	sizes := []int{200_000, 400_000, 600_000, 800_000, 1_000_000}
	methods := []string{"SD-Index topK", "SD-Index top1", "BRS", "PE"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		data := dataset.Generate(dataset.Uniform, n, dims, cfg.Seed)
		for i, m := range methods {
			var secs float64
			switch m {
			case "SD-Index topK":
				secs = timeMS(func() { newSDEngine(data, roles, topk.Config{}) }) / 1000
			case "SD-Index top1":
				secs = timeMS(func() { newMultiTop1(data, roles, 1) }) / 1000
			case "BRS":
				secs = timeMS(func() {
					if _, err := brs.New(data); err != nil {
						panic(err)
					}
				}) / 1000
			case "PE":
				secs = timeMS(func() {
					if _, err := pe.New(data); err != nil {
						panic(err)
					}
				}) / 1000
			}
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, secs)
			cfg.logf("fig8j n=%d %s: %.2f s", n, m, secs)
		}
	}
	return &SeriesReport{
		Title:  "Index construction time vs dataset size (6-d uniform)",
		XLabel: "n", YLabel: "seconds", Series: series,
	}
}
