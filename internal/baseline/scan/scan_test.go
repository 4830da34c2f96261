package scan

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
)

func TestScanOrdering(t *testing.T) {
	data := [][]float64{
		{0, 0},  // score 0·rep − |0−5| = ... depends on spec below
		{10, 5}, // far in dim0 (repulsive), exact in dim1 (attractive)
		{9, 0},
		{1, 5},
	}
	e, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{
		Point:   []float64{0, 5},
		K:       4,
		Roles:   []query.Role{query.Repulsive, query.Attractive},
		Weights: []float64{1, 1},
	}
	res, err := e.TopK(spec)
	if err != nil {
		t.Fatal(err)
	}
	// scores: p0: 0−5=−5; p1: 10−0=10; p2: 9−5=4; p3: 1−0=1
	wantIDs := []int{1, 2, 3, 0}
	wantScores := []float64{10, 4, 1, -5}
	for i := range wantIDs {
		if res[i].ID != wantIDs[i] || math.Abs(res[i].Score-wantScores[i]) > 1e-12 {
			t.Fatalf("result %d = %+v, want id %d score %v", i, res[i], wantIDs[i], wantScores[i])
		}
	}
}

func TestScanValidation(t *testing.T) {
	if _, err := New([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged data accepted")
	}
	e, _ := New([][]float64{{1, 2}})
	spec := query.Spec{Point: []float64{1}, K: 1,
		Roles: []query.Role{query.Repulsive}, Weights: []float64{1}}
	if _, err := e.TopK(spec); err == nil {
		t.Fatal("dims mismatch accepted")
	}
}

func TestScanEmptyAndKOverflow(t *testing.T) {
	e, _ := New(nil)
	if e.Len() != 0 {
		t.Fatal("empty Len != 0")
	}
	e2, _ := New([][]float64{{1}, {2}})
	spec := query.Spec{Point: []float64{0}, K: 10,
		Roles: []query.Role{query.Repulsive}, Weights: []float64{1}}
	res, err := e2.TopK(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("k>n returned %d, want 2", len(res))
	}
}

// TestScanMatchesSpecScore holds the scan to query.Spec.Score bit for bit,
// at every parity of the two-rows-per-iteration loop (n ∈ {0, 1, 2, 3,
// 1001}): rows mix ±0, denormals, ±1e150 and repeated values, so exact ties
// straddle the k-th rank, and the answer must be the k best rows by
// (score descending, ID ascending) with every score's bits equal to
// Spec.Score's.
func TestScanMatchesSpecScore(t *testing.T) {
	const dims = 4
	rng := rand.New(rand.NewSource(11))
	values := []float64{0, math.Copysign(0, -1), 0x1p-1060, -0x1p-1070, 1e150, -1e150, 0.5, 0.25}
	roles := []query.Role{query.Repulsive, query.Attractive, query.Ignored, query.Attractive}
	for _, n := range []int{0, 1, 2, 3, 1001} {
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, dims)
			for d := range data[i] {
				if rng.Intn(2) == 0 {
					data[i][d] = values[rng.Intn(len(values))]
				} else {
					data[i][d] = rng.Float64()
				}
			}
		}
		e, err := New(data)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 20; qi++ {
			spec := query.Spec{
				Point:   make([]float64, dims),
				K:       1 + rng.Intn(n+2),
				Roles:   roles,
				Weights: make([]float64, dims),
			}
			for d := range spec.Point {
				spec.Point[d] = values[rng.Intn(len(values))]
				spec.Weights[d] = []float64{0, 1, 1e150, rng.Float64()}[rng.Intn(4)]
			}
			want := make([]query.Result, n)
			for i, p := range data {
				want[i] = query.Result{ID: i, Score: spec.Score(p)}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].Score > want[b].Score })
			want = want[:min(spec.K, n)]
			got, err := e.TopK(spec)
			if n == 0 {
				if err == nil { // no rows, no dimensionality: every query is refused
					t.Fatalf("empty scan answered a %d-d query: %v", dims, got)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d query %d: %d results, want %d", n, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("n=%d query %d rank %d: (%d, %v), Spec.Score gives (%d, %v)",
						n, qi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}
}
