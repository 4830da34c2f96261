// Package brs is the Branch-and-bound Ranked Search baseline [Tao et al.,
// Information Systems 2007] adapted to main memory as in the paper's §6.1:
// points indexed by an in-memory R*-tree, queries answered by best-first
// traversal with an upper bound of the SD-score computed per minimum
// bounding rectangle.
//
// The paper describes BRS's adaptation as running constrained top-k queries
// in each region where the score is monotone per dimension. The per-MBR
// bound (simd.BoxBounds, shared with the SD-Index's zone sweep) is the same
// computation: within a rectangle, the repulsive contribution is maximized at
// the corner farthest from q per dimension, and the attractive penalty
// minimized at the nearest coordinate (zero when q's coordinate lies inside
// the rectangle's extent) — exactly the region-wise monotone extrema.
package brs

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/rstar"
	"repro/internal/simd"
)

// Engine holds the R*-tree over the dataset.
type Engine struct {
	data [][]float64
	dims int
	tree *rstar.Tree
}

// NodeCapacityFor returns the paper's tuned node capacities: 28, 16, 12, 9
// for 2, 4, 6, 8 dimensions (nearest bucket for other dimensionalities).
func NodeCapacityFor(dims int) int {
	switch {
	case dims <= 3:
		return 28
	case dims <= 5:
		return 16
	case dims <= 7:
		return 12
	default:
		return 9
	}
}

// New builds the engine with the paper's tuned node capacity for the data's
// dimensionality. Points are inserted one by one (the R*-tree construction
// whose cost Figure 8j reports).
func New(data [][]float64) (*Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	return NewWithCapacity(data, NodeCapacityFor(dims))
}

// NewWithCapacity builds the engine with an explicit R*-tree node capacity.
func NewWithCapacity(data [][]float64, capacity int) (*Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	e := &Engine{data: data, dims: dims, tree: rstar.New(max(dims, 1), capacity)}
	for i, p := range data {
		if err := query.CheckRow(p, dims); err != nil {
			return nil, fmt.Errorf("brs: point %d: %w", i, err)
		}
		if err := e.tree.Insert(p, int32(i)); err != nil {
			return nil, fmt.Errorf("brs: %w", err)
		}
	}
	return e, nil
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// Insert adds a point to the underlying tree (Figure 8b's insertion cost).
func (e *Engine) Insert(p []float64) error {
	if err := query.CheckRow(p, e.dims); err != nil {
		return fmt.Errorf("brs: %w", err)
	}
	id := int32(len(e.data))
	e.data = append(e.data, p)
	return e.tree.Insert(p, id)
}

// TopK answers the query by best-first branch and bound. Because the bound
// is exact on points, the traversal emits points in true score order and the
// first k popped points are the answer.
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	if err := spec.Validate(e.dims); err != nil {
		return nil, err
	}
	// The bound's kernel takes signed weights: +w repulsive, −w attractive.
	signed := make([]float64, e.dims)
	for d, role := range spec.Roles {
		switch role {
		case query.Repulsive:
			signed[d] = spec.Weights[d]
		case query.Attractive:
			signed[d] = -spec.Weights[d]
		}
	}
	var one [1]float64 // one box: its dimension-major layout is its own lo and hi
	upper := func(lo, hi []float64) float64 { simd.BoxBounds(one[:], lo, hi, spec.Point, signed); return one[0] }
	bf := e.tree.BestFirst(upper)
	out := make([]query.Result, 0, min(spec.K, len(e.data)))
	for len(out) < spec.K {
		_, id, score, ok := bf.Next()
		if !ok {
			break
		}
		out = append(out, query.Result{ID: int(id), Score: score})
	}
	return out, nil
}
