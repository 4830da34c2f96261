// Package pe is the Progressive Exploration baseline [Xin, Han, Chang,
// SIGMOD 2007] adapted to main memory. The original computes top-k answers
// under ad-hoc ranking functions by progressively and selectively merging
// per-attribute index streams, deferring access to full records until bounds
// prove it necessary.
//
// Substitution note (documented in DESIGN.md): we reproduce that access
// pattern with an NRA-style progressive merge — per-dimension sorted lists
// are consumed in best-contribution order, partial scores are accumulated
// per point, and upper/lower bounds decide termination without random
// access. This preserves the property the paper's comparison exercises: no
// precomputed isolines, per-attribute progressive access, and bound-based
// stopping, with the candidate-bookkeeping overhead that keeps PE in the
// sequential-scan performance band at moderate dimensionality (Figures
// 7a–c). Bookkeeping uses flat per-row arrays recycled across queries;
// termination checks run on a geometric back-off so their cost stays
// O(n log n) overall.
package pe

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/dimlist"
	"repro/internal/pq"
	"repro/internal/query"
)

// Engine holds one sorted list per dimension.
type Engine struct {
	data  [][]float64
	dims  int
	lists []*dimlist.List
	// column extrema, for worst-case (lower-bound) contributions
	minVal, maxVal []float64
	scratchPool    sync.Pool
}

// scratch is the per-query bookkeeping, recycled across queries.
type scratch struct {
	partial []float64 // accumulated contribution per row
	seen    []uint64  // bitmask over active-dimension indices per row
	touched []int32   // rows with any accumulation, in first-touch order
}

// New builds the per-dimension access structures.
func New(data [][]float64) (*Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	e := &Engine{data: data, dims: dims,
		minVal: make([]float64, dims), maxVal: make([]float64, dims)}
	for d := range e.minVal {
		e.minVal[d], e.maxVal[d] = math.Inf(1), math.Inf(-1)
	}
	for i, p := range data {
		if err := query.CheckRow(p, dims); err != nil {
			return nil, fmt.Errorf("pe: point %d: %w", i, err)
		}
		for d, c := range p {
			e.minVal[d] = math.Min(e.minVal[d], c)
			e.maxVal[d] = math.Max(e.maxVal[d], c)
		}
	}
	e.lists = make([]*dimlist.List, dims)
	for d := 0; d < dims; d++ {
		e.lists[d] = dimlist.Build(data, d)
	}
	e.scratchPool.New = func() any {
		return &scratch{
			partial: make([]float64, len(data)),
			seen:    make([]uint64, len(data)),
		}
	}
	return e, nil
}

// Len returns the dataset size.
func (e *Engine) Len() int { return len(e.data) }

// Insert appends a point to the per-dimension lists (Figure 8b's insertion
// cost: one sorted splice per dimension). Scratch buffers are regrown
// lazily on the next query.
func (e *Engine) Insert(p []float64) error {
	if err := query.CheckRow(p, e.dims); err != nil {
		return fmt.Errorf("pe: %w", err)
	}
	id := int32(len(e.data))
	e.data = append(e.data, p)
	for d := 0; d < e.dims; d++ {
		e.lists[d].Insert(p[d], id)
		e.minVal[d] = math.Min(e.minVal[d], p[d])
		e.maxVal[d] = math.Max(e.maxVal[d], p[d])
	}
	return nil
}

type activeDim struct {
	it    *dimlist.Iter
	worst float64 // minimum possible contribution on this dimension
}

// TopK runs the progressive merge without random access.
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	if err := spec.Validate(e.dims); err != nil {
		return nil, err
	}
	var active []activeDim
	for d, role := range spec.Roles {
		switch role {
		case query.Attractive:
			worst := -spec.Weights[d] * math.Max(math.Abs(spec.Point[d]-e.minVal[d]), math.Abs(spec.Point[d]-e.maxVal[d]))
			active = append(active, activeDim{e.lists[d].NewIter(spec.Point[d], spec.Weights[d], true), worst})
		case query.Repulsive:
			active = append(active, activeDim{e.lists[d].NewIter(spec.Point[d], spec.Weights[d], false), 0})
		}
	}
	if len(active) > 64 {
		return nil, fmt.Errorf("pe: more than 64 active dimensions")
	}
	if len(e.data) == 0 {
		return nil, nil
	}

	sc := e.scratchPool.Get().(*scratch)
	defer e.release(sc)
	if len(sc.partial) < len(e.data) {
		sc.partial = make([]float64, len(e.data))
		sc.seen = make([]uint64, len(e.data))
	}

	bounds := make([]float64, len(active))
	round, nextCheck := 0, 4
	for {
		round++
		progressed := false
		for ai := range active {
			id, contrib, ok := active[ai].it.Next()
			bounds[ai] = active[ai].it.Bound()
			if !ok {
				continue
			}
			progressed = true
			bit := uint64(1) << uint(ai)
			if sc.seen[id] == 0 {
				sc.touched = append(sc.touched, id)
			}
			if sc.seen[id]&bit == 0 {
				sc.seen[id] |= bit
				sc.partial[id] += contrib
			}
		}
		if !progressed {
			return e.finishExact(spec, sc), nil
		}
		if round >= nextCheck {
			nextCheck *= 2
			if done, results := e.tryFinish(spec, active, bounds, sc); done {
				return results, nil
			}
		}
	}
}

func (e *Engine) release(sc *scratch) {
	for _, id := range sc.touched {
		sc.partial[id] = 0
		sc.seen[id] = 0
	}
	sc.touched = sc.touched[:0]
	e.scratchPool.Put(sc)
}

// tryFinish checks the NRA stopping rule: the k-th best lower bound must
// reach both the upper bound of every other candidate and the upper bound of
// any entirely-unseen point. The pass keeps the k best lower bounds in a
// bounded heap (O(touched · log k)) rather than sorting the candidate set.
func (e *Engine) tryFinish(spec query.Spec, active []activeDim, bounds []float64, sc *scratch) (bool, []query.Result) {
	var unseenUB float64
	for _, b := range bounds {
		unseenUB += b
	}
	k := spec.K
	if k > len(e.data) {
		k = len(e.data)
	}
	if len(sc.touched) < k {
		return false, nil
	}
	lbOf := func(id int32) float64 {
		lb := sc.partial[id]
		for ai := range active {
			if sc.seen[id]&(1<<uint(ai)) == 0 {
				lb += active[ai].worst
			}
		}
		return lb
	}
	top := pq.NewTopK[int32](k)
	for _, id := range sc.touched {
		top.Add(id, lbOf(id))
	}
	kthLB := top.Threshold()
	if len(sc.touched) < len(e.data) && kthLB < unseenUB {
		return false, nil
	}
	winners := top.Results()
	inTop := make(map[int32]bool, k)
	for _, w := range winners {
		inTop[w.Item] = true
	}
	for _, id := range sc.touched {
		if inTop[id] {
			continue
		}
		ub := sc.partial[id]
		for ai := range active {
			if sc.seen[id]&(1<<uint(ai)) == 0 {
				ub += bounds[ai]
			}
		}
		if ub > kthLB {
			return false, nil
		}
	}
	// The top-k membership is decided; resolve exact scores for the
	// winners (the final per-answer record access even NRA performs).
	out := make([]query.Result, 0, k)
	for _, w := range winners {
		out = append(out, query.Result{ID: int(w.Item), Score: spec.Score(e.data[w.Item])})
	}
	sortResults(out)
	return true, out
}

// finishExact scores every touched candidate; used when all streams drained
// (every point has then been seen on every active dimension).
func (e *Engine) finishExact(spec query.Spec, sc *scratch) []query.Result {
	out := make([]query.Result, 0, len(sc.touched))
	for _, id := range sc.touched {
		out = append(out, query.Result{ID: int(id), Score: spec.Score(e.data[id])})
	}
	sortResults(out)
	if len(out) > spec.K {
		out = out[:spec.K]
	}
	return out
}

func sortResults(out []query.Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
}
