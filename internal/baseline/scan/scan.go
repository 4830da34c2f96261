// Package scan is the sequential-scan baseline: exact scores for every
// point, k best kept in a bounded heap. It is both the simplest engine and
// the ground truth every other engine is tested against.
package scan

import (
	"fmt"

	"repro/internal/pq"
	"repro/internal/query"
)

// Engine scans the dataset on every query.
type Engine struct {
	data [][]float64
	dims int
}

// New wraps a dataset (not copied). All points must share one length.
func New(data [][]float64) (*Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	for i, p := range data {
		if err := query.CheckRow(p, dims); err != nil {
			return nil, fmt.Errorf("scan: point %d: %w", i, err)
		}
	}
	return &Engine{data: data, dims: dims}, nil
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// TopK answers the query by scanning every point.
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	if err := spec.Validate(e.dims); err != nil {
		return nil, err
	}
	// Scan iterates in ID order, so insertion-order tie-breaking already is
	// ascending-ID tie-breaking; the explicit order documents the contract
	// every other engine is held to.
	collector := pq.NewTopKOrdered[int](spec.K, func(a, b int) bool { return a < b })
	for i, p := range e.data {
		collector.Add(i, spec.Score(p))
	}
	scored := collector.Results()
	out := make([]query.Result, len(scored))
	for i, s := range scored {
		out[i] = query.Result{ID: s.Item, Score: s.Score}
	}
	return out, nil
}
