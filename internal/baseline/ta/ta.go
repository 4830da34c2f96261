// Package ta is the adapted Threshold Algorithm baseline exactly as the
// paper's §6.1 describes it: an ordered list per dimension; at query time a
// binary search fetches the closest points on attractive dimensions and the
// farthest on repulsive ones; fetched points are fully scored by random
// access, and iteration stops when the k-th best score reaches the threshold
// assembled from the per-dimension frontier bounds.
package ta

import (
	"fmt"
	"math"

	"repro/internal/dimlist"
	"repro/internal/pq"
	"repro/internal/query"
)

// Engine holds the dataset and one sorted list per dimension.
type Engine struct {
	data  [][]float64
	dims  int
	lists []*dimlist.List
}

// New builds the per-dimension sorted lists.
func New(data [][]float64) (*Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	e := &Engine{data: data, dims: dims}
	for i, p := range data {
		if err := query.CheckRow(p, dims); err != nil {
			return nil, fmt.Errorf("ta: point %d: %w", i, err)
		}
	}
	e.lists = make([]*dimlist.List, dims)
	for d := 0; d < dims; d++ {
		e.lists[d] = dimlist.Build(data, d)
	}
	return e, nil
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// TopK runs the threshold algorithm, treating every active dimension as its
// own subproblem (the granularity difference the paper's SD-Index improves
// on).
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	if err := spec.Validate(e.dims); err != nil {
		return nil, err
	}
	var iters []*dimlist.Iter
	for d, role := range spec.Roles {
		switch role {
		case query.Attractive:
			iters = append(iters, e.lists[d].NewIter(spec.Point[d], spec.Weights[d], true))
		case query.Repulsive:
			iters = append(iters, e.lists[d].NewIter(spec.Point[d], spec.Weights[d], false))
		}
	}
	// Ascending-ID tie-breaking matches the sequential scan byte for byte.
	collector := pq.NewTopKOrdered[int](spec.K, func(a, b int) bool { return a < b })
	seen := make(map[int32]bool)
	for {
		exhausted := true
		for _, it := range iters {
			id, _, ok := it.Next()
			if !ok {
				continue
			}
			exhausted = false
			if seen[id] {
				continue
			}
			seen[id] = true
			collector.Add(int(id), spec.Score(e.data[id]))
		}
		if exhausted {
			break
		}
		// Threshold: the sum of the per-dimension frontier bounds is the
		// best score any entirely-unfetched point can still achieve. An
		// exhausted dimension has already surfaced every point, so no
		// unfetched point exists and the threshold collapses to −Inf.
		threshold := 0.0
		for _, it := range iters {
			threshold += it.Bound()
		}
		// Strict: an unseen point tying the k-th best could still enter
		// through the ID tie-break.
		if collector.Full() && (math.IsInf(threshold, -1) || collector.Threshold() > threshold) {
			break
		}
	}
	scored := collector.Results()
	out := make([]query.Result, len(scored))
	for i, s := range scored {
		out[i] = query.Result{ID: s.Item, Score: s.Score}
	}
	return out, nil
}
