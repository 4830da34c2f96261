package sdquery_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	sdquery "repro"
)

// TestValueDomain holds every public engine to one value domain: a row
// coordinate, query coordinate or weight is finite with magnitude at most
// 1e150. Each value just past the bound, and every non-finite one, is
// refused at the door it comes through — the constructor for rows, TopK for
// query points and weights — and data and queries at the bound itself are
// answered exactly like the scan, down to the score bits. BRS and PE keep
// their differential-suite contract: ties inside a score may come back in
// another ID order, so they must match the scan's score sequence bit for bit
// with IDs that rescore to it.
func TestValueDomain(t *testing.T) {
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	engines := []struct {
		name     string
		new      func([][]float64) (sdquery.Engine, error)
		tiesByID bool
	}{
		{"scan", sdquery.NewScan, true},
		{"ta", sdquery.NewTA, true},
		{"pe", sdquery.NewPE, false},
		{"brs", func(d [][]float64) (sdquery.Engine, error) { return sdquery.NewBRS(d, 0) }, false},
		{"sdindex", func(d [][]float64) (sdquery.Engine, error) { return sdquery.NewSDIndex(d, roles) }, true},
		// Three zone-swept segments; the name is historical (the cell pinned
		// the retired §5 streams).
		{"sdindex-stream", func(d [][]float64) (sdquery.Engine, error) {
			return sdquery.NewSDIndex(d, roles, sdquery.WithShards(3))
		}, true},
	}
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, 3000)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	// Rows at the bound, in every corner the score can reach from it.
	for i, p := range [][]float64{
		{1e150, -1e150, 0, 0}, {-1e150, 1e150, 0, 0}, {1e150, 1e150, -1e150, -1e150},
		{0, 0, 1e150, 1e150}, {-1e150, -1e150, 1e150, 1e150},
	} {
		data[100*i+7] = p
	}
	query := func(point, weights []float64) sdquery.Query {
		return sdquery.Query{Point: point, K: 5, Roles: roles, Weights: weights}
	}
	atBound := []sdquery.Query{
		query([]float64{-1e150, 1e150, 0.5, 0.5}, []float64{1, 1, 1, 1}),
		query([]float64{0.5, 0.5, 0.5, 0.5}, []float64{1e150, 1e150, 1e150, 1e150}),
		query([]float64{1e150, -1e150, 1e150, -1e150}, []float64{1e150, 1, 0, 1e150}),
		query([]float64{0.3, 0.7, 0.1, 0.9}, []float64{0.8, 0.5, 0.3, 0.9}),
	}
	scan, err := sdquery.NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	past := math.Nextafter(1e150, math.Inf(1))
	outside := []float64{past, -past, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			e, err := eng.new(data)
			if err != nil {
				t.Fatalf("data at the bound refused: %v", err)
			}
			for qi, q := range atBound {
				want, err := scan.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.TopK(q)
				if err != nil {
					t.Fatalf("query %d at the bound refused: %v", qi, err)
				}
				if fmt.Sprint(render(got, eng.tiesByID)) != fmt.Sprint(render(want, eng.tiesByID)) {
					t.Fatalf("query %d: got %v, scan %v", qi, got, want)
				}
				for i, r := range got {
					if math.Float64bits(q.Score(data[r.ID])) != math.Float64bits(r.Score) {
						t.Fatalf("query %d rank %d: ID %d rescores to %v, not %v", qi, i, r.ID, q.Score(data[r.ID]), r.Score)
					}
				}
			}
			for _, v := range outside {
				bad := append([][]float64{{0, 0, 0, 0}}, []float64{0.5, v, 0.5, 0.5})
				if _, err := eng.new(bad); err == nil {
					t.Errorf("row coordinate %v accepted", v)
				}
				q := query([]float64{0.5, 0.5, v, 0.5}, []float64{1, 1, 1, 1})
				if _, err := e.TopK(q); err == nil {
					t.Errorf("query coordinate %v accepted", v)
				}
				q = query([]float64{0.5, 0.5, 0.5, 0.5}, []float64{1, 1, 1, v})
				if _, err := e.TopK(q); err == nil {
					t.Errorf("weight %v accepted", v)
				}
			}
		})
	}
}

// render lists results by their exact score bits, with their IDs when the
// engine breaks ties by ID.
func render(res []sdquery.Result, ids bool) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = fmt.Sprintf("%x", math.Float64bits(r.Score))
		if ids {
			out[i] = fmt.Sprintf("%d:%s", r.ID, out[i])
		}
	}
	return out
}
