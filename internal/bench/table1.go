package bench

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/topk"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: SD-query on the ChEMBL-like molecular dataset",
		Run:   runTable1,
	})
}

// runTable1 reproduces the qualitative analysis of §6.3: a query molecule
// with high drug-likeness (11) and low molecular weight (250), attractive on
// drug-likeness and repulsive on MW. The averages of the top-k sets are
// reported against the overall averages; the paper's finding is that the
// top-k molecules are overweight yet drug-like, with far lower polar surface
// area than the global mean.
func runTable1(cfg Config) Report {
	cfg = cfg.withDefaults()
	n := dataset.ChEMBLSize
	if cfg.Scale < 1 {
		n = cfg.scaled(n)
	}
	cfg.logf("table1: simulating %d molecules", n)
	mols := dataset.ChEMBL(n, cfg.Seed)
	data := dataset.MoleculeVectors(mols) // [drug-likeness, MW] normalized
	roles := []query.Role{query.Attractive, query.Repulsive}
	eng := newSDEngine(data, roles, topk.Config{})
	overall := dataset.Stats(mols)
	columns := []string{"Description", "Drug-likeness", "MW", "PSA", "exceptions"}
	rows := [][]string{{
		"Overall Average",
		fmt.Sprintf("%.2f", overall.DrugLikeness),
		fmt.Sprintf("%.1f", overall.MW),
		fmt.Sprintf("%.2f", overall.PSA),
		"-",
	}}
	queryPoint := []float64{11 / dataset.MaxDrugLikeness, 250.0 / 1500}
	for _, k := range []int{10, 50, 100, 200} {
		res, err := eng.TopK(query.Spec{
			Point:   queryPoint,
			K:       k,
			Roles:   roles,
			Weights: []float64{1, 1},
		})
		if err != nil {
			panic(err)
		}
		top := make([]dataset.Molecule, len(res))
		exceptions := 0
		for i, r := range res {
			top[i] = mols[r.ID]
			if top[i].Exception {
				exceptions++
			}
		}
		s := dataset.Stats(top)
		rows = append(rows, []string{
			fmt.Sprintf("k=%d", k),
			fmt.Sprintf("%.2f", s.DrugLikeness),
			fmt.Sprintf("%.1f", s.MW),
			fmt.Sprintf("%.2f", s.PSA),
			fmt.Sprintf("%d/%d", exceptions, k),
		})
		cfg.logf("table1 k=%d: DL %.2f MW %.1f PSA %.2f", k, s.DrugLikeness, s.MW, s.PSA)
	}
	return &TableReport{
		Title:   fmt.Sprintf("Statistics on top-k results (%d molecules; query: drug-likeness 11 attractive, MW 250 repulsive)", n),
		Columns: columns,
		Rows:    rows,
	}
}
