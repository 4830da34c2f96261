// Package scan is the sequential-scan baseline: exact scores for every
// point, k best kept in a bounded heap. It is both the simplest engine and
// the ground truth every other engine is tested against.
package scan

import (
	"fmt"
	"math"

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
	// Each row's score is spec.Score's, bit for bit, with the role folded
	// into the weight's sign once per query: score −= w·|Δ| is score +=
	// (−w)·|Δ|, and an Ignored dimension's +0 term leaves the score as it is
	// (a sum that starts at +0 never reaches −0).
	signed := make([]float64, e.dims)
	for d, r := range spec.Roles {
		switch r {
		case query.Repulsive:
			signed[d] = spec.Weights[d]
		case query.Attractive:
			signed[d] = -spec.Weights[d]
		}
	}
	q := spec.Point[:len(signed)]
	// Scan iterates in ID order, so insertion-order tie-breaking already is
	// ascending-ID tie-breaking; the explicit order documents the contract
	// every other engine is held to. A row strictly below the k-th best
	// cannot enter, so it skips the collector. Rows are scored two at a
	// time — two independent sums, each still accumulated left to right —
	// and offered in ID order.
	collector := pq.NewTopKOrdered[int](spec.K, func(a, b int) bool { return a < b })
	line := math.Inf(-1)
	offer := func(i int, score float64) {
		if score >= line && collector.Add(i, score) {
			line = collector.Threshold()
		}
	}
	rows := e.data
	i := 0
	for ; i+1 < len(rows); i += 2 {
		p0, p1 := rows[i][:len(signed)], rows[i+1][:len(signed)]
		var s0, s1 float64
		for d, w := range signed {
			s0 += w * math.Abs(p0[d]-q[d])
			s1 += w * math.Abs(p1[d]-q[d])
		}
		offer(i, s0)
		offer(i+1, s1)
	}
	if i < len(rows) {
		p := rows[i][:len(signed)]
		var score float64
		for d, w := range signed {
			score += w * math.Abs(p[d]-q[d])
		}
		offer(i, score)
	}
	scored := collector.Results()
	out := make([]query.Result, len(scored))
	for i, s := range scored {
		out[i] = query.Result{ID: s.Item, Score: s.Score}
	}
	return out, nil
}
