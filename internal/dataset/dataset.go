// Package dataset generates the synthetic workloads used in the paper's
// evaluation (§6.1): uniform, correlated, and anti-correlated point sets of
// up to ten million points, plus a ChEMBL-like molecular dataset for the
// qualitative analysis (Table 1). All generators are deterministic for a
// given seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution names a synthetic point distribution.
type Distribution int

const (
	// Uniform draws every coordinate independently from U[0, 1).
	Uniform Distribution = iota
	// Correlated concentrates points around the main diagonal: dimensions
	// move together, as in the skyline-benchmark generator.
	Correlated
	// AntiCorrelated concentrates points around the hyperplane Σx ≈ d/2:
	// a point good in one dimension tends to be poor in the others.
	AntiCorrelated
)

// String returns the conventional name of the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Generate produces n points of dimensionality dims from the distribution,
// with all coordinates in [0, 1]. It panics on non-positive n or dims (these
// are programmer errors in benchmark setup, not runtime conditions).
func Generate(dist Distribution, n, dims int, seed int64) [][]float64 {
	if n <= 0 || dims <= 0 {
		panic(fmt.Sprintf("dataset: invalid shape n=%d dims=%d", n, dims))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := makeMatrix(n, dims)
	switch dist {
	case Uniform:
		for i := range pts {
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
	case Correlated:
		// A shared base value per point with per-dimension jitter yields
		// positive pairwise correlation (ρ ≈ 0.7, the usual strength of
		// the skyline-benchmark generator).
		for i := range pts {
			base := rng.Float64()
			for j := range pts[i] {
				pts[i][j] = clamp01(base + rng.NormFloat64()*0.18)
			}
		}
	case AntiCorrelated:
		// Points near the plane Σx = d/2: a tight base close to 0.5 with
		// zero-sum offsets of large spread gives negative pairwise
		// correlation for every dimension pair.
		for i := range pts {
			base := 0.5 + rng.NormFloat64()*0.04
			offsets := pts[i] // fill in place, then recenter
			var sum float64
			for j := range offsets {
				offsets[j] = rng.Float64() - 0.5
				sum += offsets[j]
			}
			mean := sum / float64(dims)
			for j := range offsets {
				offsets[j] = clamp01(base + 0.7*(offsets[j]-mean))
			}
		}
	default:
		panic(fmt.Sprintf("dataset: unknown distribution %d", int(dist)))
	}
	return pts
}

// Queries draws n query points uniformly from [0, 1]^dims, the paper's
// workload ("100 randomly selected points from a uniform distribution").
func Queries(n, dims int, seed int64) [][]float64 {
	return Generate(Uniform, n, dims, seed)
}

func makeMatrix(n, dims int) [][]float64 {
	backing := make([]float64, n*dims)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i], backing = backing[:dims:dims], backing[dims:]
	}
	return pts
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Correlation returns the sample Pearson correlation between two coordinate
// columns of a point set. The generator tests check each distribution with it.
func Correlation(pts [][]float64, a, b int) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var meanA, meanB float64
	for _, p := range pts {
		meanA += p[a]
		meanB += p[b]
	}
	meanA /= n
	meanB /= n
	var cov, varA, varB float64
	for _, p := range pts {
		da, db := p[a]-meanA, p[b]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}
