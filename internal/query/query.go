// Package query defines the SD-Query specification shared by every engine
// in this module: the query point, per-dimension roles (attractive /
// repulsive / ignored), per-dimension weights, and the answer size k
// (Definition 1 of the paper).
package query

import (
	"fmt"
	"math"
)

// Role classifies one dimension of a query.
type Role uint8

const (
	// Ignored dimensions contribute nothing to the score.
	Ignored Role = iota
	// Attractive dimensions contribute −weight·|p_i − q_i| (set S): closer
	// is better.
	Attractive
	// Repulsive dimensions contribute +weight·|p_i − q_i| (set D): farther
	// is better.
	Repulsive
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Ignored:
		return "ignored"
	case Attractive:
		return "attractive"
	case Repulsive:
		return "repulsive"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Spec is a complete SD-Query.
type Spec struct {
	// Point is the query object q.
	Point []float64
	// K is the answer size.
	K int
	// Roles assigns each dimension to D (Repulsive), S (Attractive), or
	// neither. len(Roles) must equal len(Point).
	Roles []Role
	// Weights are the α (repulsive) and β (attractive) parameters, one per
	// dimension, aligned with Roles. Weights of Ignored dimensions are not
	// read. All weights must be ≥ 0 and inside the value domain (CheckValue).
	Weights []float64
}

// MaxAbs bounds the magnitude of every value an engine accepts: row
// coordinates, query coordinates and weights. A score term w·|p − q| is then
// at most 2e300, so no sum over fewer than 10⁷ dimensions overflows, and
// every engine computes the same finite score for every row.
const MaxAbs = 1e150

// CheckValue refuses a value outside the shared domain: NaN, ±Inf, or a
// magnitude above MaxAbs.
func CheckValue(v float64) error {
	if !(math.Abs(v) <= MaxAbs) {
		return fmt.Errorf("%v is outside [-%g, %g]", v, MaxAbs, MaxAbs)
	}
	return nil
}

// CheckRow refuses a data row of the wrong dimensionality or with a
// coordinate outside the value domain — the check every engine applies to
// the rows it builds from, is given, or loads.
func CheckRow(p []float64, dims int) error {
	if len(p) != dims {
		return fmt.Errorf("point has %d dims, want %d", len(p), dims)
	}
	for d, c := range p {
		if err := CheckValue(c); err != nil {
			return fmt.Errorf("dim %d: %w", d, err)
		}
	}
	return nil
}

// Validate checks the spec against a dataset dimensionality.
func (s Spec) Validate(dims int) error {
	if s.K < 1 {
		return fmt.Errorf("query: k must be ≥ 1, got %d", s.K)
	}
	if len(s.Point) != dims {
		return fmt.Errorf("query: point has %d dims, dataset has %d", len(s.Point), dims)
	}
	if len(s.Roles) != dims || len(s.Weights) != dims {
		return fmt.Errorf("query: roles/weights lengths (%d, %d) != dims %d",
			len(s.Roles), len(s.Weights), dims)
	}
	active := 0
	for i := range s.Roles {
		switch s.Roles[i] {
		case Attractive, Repulsive:
			active++
			if CheckValue(s.Weights[i]) != nil || s.Weights[i] < 0 {
				return fmt.Errorf("query: dimension %d has invalid weight %v", i, s.Weights[i])
			}
		case Ignored:
		default:
			return fmt.Errorf("query: dimension %d has unknown role %d", i, s.Roles[i])
		}
		if err := CheckValue(s.Point[i]); err != nil {
			return fmt.Errorf("query: dimension %d of the query point: %w", i, err)
		}
	}
	if active == 0 {
		return fmt.Errorf("query: no attractive or repulsive dimensions")
	}
	return nil
}

// Dims returns the index sets D (repulsive) and S (attractive).
func (s Spec) Dims() (repulsive, attractive []int) {
	for i, r := range s.Roles {
		switch r {
		case Repulsive:
			repulsive = append(repulsive, i)
		case Attractive:
			attractive = append(attractive, i)
		}
	}
	return repulsive, attractive
}

// Score evaluates Eqn. 3 of the paper for a data point:
//
//	SD-score(p, q) = Σ_{i∈D} w_i·|p_i − q_i| − Σ_{j∈S} w_j·|p_j − q_j|.
func (s Spec) Score(p []float64) float64 {
	var score float64
	for i, r := range s.Roles {
		switch r {
		case Repulsive:
			score += s.Weights[i] * math.Abs(p[i]-s.Point[i])
		case Attractive:
			score -= s.Weights[i] * math.Abs(p[i]-s.Point[i])
		}
	}
	return score
}

// Result is one answer: the index of the point in the dataset and its score.
type Result struct {
	ID    int
	Score float64
}

// Emission is one sorted-access output of a subproblem iterator: a dataset
// row and its exact contribution to the SD-score from that subproblem's
// dimensions. Batched fetch paths (topk.Stream.NextBatch, dimlist
// Iter.NextBatch) fill caller-provided Emission slices so the aggregation
// loop moves whole runs per call instead of paying one interface dispatch
// per point.
type Emission struct {
	ID      int32
	Contrib float64
}
