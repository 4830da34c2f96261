package bench

import (
	"fmt"

	"repro/internal/baseline/brs"
	"repro/internal/baseline/pe"
	"repro/internal/baseline/scan"
	"repro/internal/baseline/ta"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/topk"
)

func init() {
	for _, d := range []struct {
		suffix string
		dist   dataset.Distribution
	}{{"a", dataset.Uniform}, {"b", dataset.Correlated}, {"c", dataset.AntiCorrelated}} {
		d := d
		register(Experiment{
			ID:    "fig7" + d.suffix,
			Title: fmt.Sprintf("Fig 7%s: querying time vs dataset size (6-d %s, k=5)", d.suffix, d.dist),
			Run:   func(cfg Config) Report { return runFig7Size(cfg, d.dist) },
		})
	}
	for _, d := range []struct {
		suffix string
		dist   dataset.Distribution
	}{{"d", dataset.Uniform}, {"e", dataset.Correlated}, {"f", dataset.AntiCorrelated}} {
		d := d
		register(Experiment{
			ID:    "fig7" + d.suffix,
			Title: fmt.Sprintf("Fig 7%s: querying time vs dimensionality (%s, k=5)", d.suffix, d.dist),
			Run:   func(cfg Config) Report { return runFig7Dims(cfg, d.dist) },
		})
	}
	for _, d := range []struct {
		suffix string
		dist   dataset.Distribution
	}{{"g", dataset.Uniform}, {"h", dataset.Correlated}} {
		d := d
		register(Experiment{
			ID:    "fig7" + d.suffix,
			Title: fmt.Sprintf("Fig 7%s: querying time vs k (6-d %s)", d.suffix, d.dist),
			Run:   func(cfg Config) Report { return runFig7K(cfg, d.dist) },
		})
	}
	for _, d := range []struct {
		suffix string
		dist   dataset.Distribution
	}{{"i", dataset.Uniform}, {"j", dataset.Correlated}} {
		d := d
		register(Experiment{
			ID:    "fig7" + d.suffix,
			Title: fmt.Sprintf("Fig 7%s: querying time vs number of attractive dimensions (6-d %s)", d.suffix, d.dist),
			Run:   func(cfg Config) Report { return runFig7Attractive(cfg, d.dist) },
		})
	}
}

// runFig7Size: 6-d points, 3 repulsive + 3 attractive, k = 5, n swept to one
// million; methods: sequential scan, SD-Index, TA, BRS, PE.
func runFig7Size(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const dims, k = 6, 5
	roles := rolesSplit(dims, 3)
	sizes := []int{100_000, 250_000, 500_000, 750_000, 1_000_000}
	methods := []string{"Sequential Scan", "SD-Index", "TA", "BRS", "PE"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, n0 := range sizes {
		n := cfg.scaled(n0)
		cfg.logf("fig7%v: n=%d generating %s data", dist, n, dist)
		data := dataset.Generate(dist, n, dims, cfg.Seed)
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		for i, m := range methods {
			ms := timeMethod(cfg, m, data, roles, specs)
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig7 size n=%d %s: %.1f ms", n, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs dataset size (6-d %s, k=5, %d queries)", dist, cfg.Queries),
		XLabel: "n", YLabel: "total ms", Series: series,
	}
}

// timeMethod builds the named engine, runs the query batch, and lets the
// engine be collected afterwards (one engine resident at a time).
func timeMethod(cfg Config, method string, data [][]float64, roles []query.Role, specs []query.Spec) float64 {
	switch method {
	case "Sequential Scan":
		eng, err := scan.New(data)
		if err != nil {
			panic(err)
		}
		return runQueries(eng, specs)
	case "SD-Index":
		eng := newSDEngine(data, roles, topk.Config{})
		return runQueries(eng, specs)
	case "TA":
		eng, err := ta.New(data)
		if err != nil {
			panic(err)
		}
		return runQueries(eng, specs)
	case "BRS":
		eng, err := brs.New(data)
		if err != nil {
			panic(err)
		}
		return runQueries(eng, specs)
	case "PE":
		eng, err := pe.New(data)
		if err != nil {
			panic(err)
		}
		return runQueries(eng, specs)
	}
	panic("unknown method " + method)
}

// runFig7Dims: dimensionality swept 2..8 with an even attractive/repulsive
// split, n = 100k, k = 5. PE is excluded as in the paper (it tracks scan).
func runFig7Dims(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const k = 5
	n := cfg.scaled(100_000)
	methods := []string{"Sequential Scan", "SD-Index", "TA", "BRS"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for _, dims := range []int{2, 4, 6, 8} {
		data := dataset.Generate(dist, n, dims, cfg.Seed)
		roles := rolesSplit(dims, dims/2)
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		for i, m := range methods {
			ms := timeMethod(cfg, m, data, roles, specs)
			series[i].X = append(series[i].X, float64(dims))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig7 dims d=%d %s: %.1f ms", dims, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs dimensionality (%s, n=%d, k=5)", dist, n),
		XLabel: "dims", YLabel: "total ms", Series: series,
	}
}

// runFig7K: k swept 5..100 on 6-d data.
func runFig7K(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const dims = 6
	n := cfg.scaled(100_000)
	roles := rolesSplit(dims, 3)
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
			cfg.logf("fig7 k=%d %s: %.1f ms", k, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs k (6-d %s, n=%d)", dist, n),
		XLabel: "k", YLabel: "total ms", Series: series,
	}
}

// runFig7Attractive: the number of attractive dimensions swept 0..3 of 6
// (every pairing scenario; at 0 the SD-Index degenerates into TA).
func runFig7Attractive(cfg Config, dist dataset.Distribution) Report {
	cfg = cfg.withDefaults()
	const dims, k = 6, 5
	n := cfg.scaled(100_000)
	data := dataset.Generate(dist, n, dims, cfg.Seed)
	methods := []string{"Sequential Scan", "SD-Index", "TA", "BRS"}
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Name = m
	}
	for a := 0; a <= 3; a++ {
		roles := rolesSplit(dims, a)
		specs := makeSpecs(roles, k, cfg.Queries, cfg.Seed+2)
		for i, m := range methods {
			ms := timeMethod(cfg, m, data, roles, specs)
			series[i].X = append(series[i].X, float64(a))
			series[i].Y = append(series[i].Y, ms)
			cfg.logf("fig7 attr=%d %s: %.1f ms", a, m, ms)
		}
	}
	return &SeriesReport{
		Title:  fmt.Sprintf("Querying time vs attractive dimensions (6-d %s, n=%d, k=5)", dist, n),
		XLabel: "attractive", YLabel: "total ms", Series: series,
	}
}
