package core

import (
	"fmt"

	"repro/internal/query"
)

// Query planning: deriving, from a query spec, the set of subproblems the §5
// aggregation actually has to consult — the surviving (nonzero-weight) 2D
// pairs, the surviving 1D lone dimensions, the active dimensions whose
// weights feed the signed score kernel, and the dimensions whose reach terms
// size the float-error pad. The derivation is a pure function of the query's
// per-dimension *shape* — its role and whether its weight is zero — never of
// the weight magnitudes or the query point, so engines memoize it per shape
// signature: repeated traffic shapes (the common case for a service fronting
// one application) skip plan derivation entirely and the hot path starts at
// subproblem construction.

// planDim is one active dimension of a plan: the dimension index and the
// sign its weight carries in the folded score kernel (+1 repulsive,
// −1 attractive).
type planDim struct {
	d    int32
	sign int8
}

// queryPlan is the memoized derivation for one query shape. Plans are
// immutable once published to the cache and may be read concurrently; the
// scratch plan embedded in each pooled queryCtx is reused for shapes that
// bypass the cache.
type queryPlan struct {
	// err is the role-compatibility failure for this shape, if any. A shape
	// that queries a dimension under the wrong role always fails, so the
	// error is part of the plan.
	err error
	// active lists the dimensions with an engaged role and a nonzero weight,
	// with the score-kernel sign folded in.
	active []planDim
	// pairs indexes the engine layout's pair list: the 2D subproblems with
	// at least one nonzero weight. Pairs with both weights zero contribute
	// nothing and are dropped; their bound is 0 by omission. The same pairs
	// also name the reach terms of the float pad. Because the layout is
	// fixed at the engine level, the same indices select the right tree in
	// every sealed segment.
	pairs []int32
	// lone lists ordinals into the layout's lone-dimension list (not raw
	// dimension numbers: the ordinal also indexes each segment's sorted
	// lists) whose dimension has nonzero weight.
	lone []int32
}

// maxPlanDims bounds the dimensionality the packed shape signature covers:
// 3 bits per dimension (role plus zero-weight flag) in a uint64. Higher-
// dimensional engines derive plans per query into pooled scratch instead.
const maxPlanDims = 21

// maxPlanCacheEntries caps the published cache. Real traffic has a handful
// of shapes; the cap only matters under adversarial shape churn, where the
// cache stops admitting new entries and extra shapes are derived into
// scratch, keeping memory bounded.
const maxPlanCacheEntries = 1 << 10

// planSignature packs the query's per-dimension shape — role (2 bits) and
// weight-is-zero flag (1 bit) — into a cache key. The second result is false
// when the dimensionality exceeds what the packing covers. Roles have been
// validated by spec.Validate, so each fits its 2 bits.
func planSignature(spec query.Spec) (uint64, bool) {
	if len(spec.Roles) > maxPlanDims {
		return 0, false
	}
	var sig uint64
	for d, r := range spec.Roles {
		b := uint64(r)
		if r != query.Ignored && spec.Weights[d] == 0 {
			b |= 4
		}
		sig |= b << (3 * uint(d))
	}
	return sig, true
}

// nsubs is the number of subproblems the plan binds to each streamed
// segment: the layout's surviving pairs and lone dimensions.
func (p *queryPlan) nsubs() int { return len(p.pairs) + len(p.lone) }

// derivePlanInto computes the plan for spec's shape into p, reusing p's
// slices. It is the single source of truth both the cached and the scratch
// paths share.
func (e *Engine) derivePlanInto(p *queryPlan, spec query.Spec) {
	p.err = nil
	p.active = p.active[:0]
	p.pairs = p.pairs[:0]
	p.lone = p.lone[:0]
	for d := 0; d < e.dims; d++ {
		switch spec.Roles[d] {
		case query.Ignored:
			// contributes nothing
		case e.roles[d]:
			if spec.Weights[d] != 0 {
				sign := int8(-1)
				if e.roles[d] == query.Repulsive {
					sign = 1
				}
				p.active = append(p.active, planDim{d: int32(d), sign: sign})
			}
		default:
			p.err = fmt.Errorf("core: dimension %d queried as %v but indexed as %v",
				d, spec.Roles[d], e.roles[d])
			return
		}
	}
	// effW mirrors the weight the aggregation will use: the spec weight when
	// the dimension's role is engaged, zero when demoted to Ignored.
	effW := func(d int) float64 {
		if spec.Roles[d] == e.roles[d] {
			return spec.Weights[d]
		}
		return 0
	}
	for i, pr := range e.layout.pairs {
		if effW(pr.Rep) != 0 || effW(pr.Attr) != 0 {
			p.pairs = append(p.pairs, int32(i))
		}
	}
	for li, d := range e.layout.lone {
		if effW(d) != 0 {
			p.lone = append(p.lone, int32(li))
		}
	}
}

// planFor resolves the plan for spec: a cache hit returns the published
// immutable plan, a miss derives and (size cap permitting) publishes a fresh
// one, and shapes outside the signature's coverage derive into the pooled
// scratch plan. The hit path performs no allocation and no locking (an atomic
// pointer load plus one map read), which is what keeps TopKAppend zero-alloc
// in steady state.
func (e *Engine) planFor(spec query.Spec, scratch *queryPlan) (pl *queryPlan, hit bool) {
	sig, ok := planSignature(spec)
	if !ok {
		e.derivePlanInto(scratch, spec)
		return scratch, false
	}
	if m := e.plans.Load(); m != nil {
		if p, ok := (*m)[sig]; ok {
			return p, true
		}
	}
	p := new(queryPlan)
	e.derivePlanInto(p, spec)
	// Error plans are not published: failing shapes are a cold path that is
	// cheap to re-derive, and caching them would let invalid-shape churn
	// fill the capped cache and permanently lock legitimate shapes out.
	if p.err == nil {
		e.publishPlan(sig, p)
	}
	return p, false
}

// publishPlan inserts a plan under the copy-on-write discipline: readers
// load the map pointer atomically and never see a map being written, writers
// serialize on planMu and install a fresh copy. Concurrent misses on the
// same signature publish equivalent plans; last write wins.
func (e *Engine) publishPlan(sig uint64, p *queryPlan) {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	old := e.plans.Load()
	n := 0
	if old != nil {
		if _, exists := (*old)[sig]; !exists && len(*old) >= maxPlanCacheEntries {
			return // cap reached: serve this shape from derivation
		}
		n = len(*old)
	}
	m := make(map[uint64]*queryPlan, n+1)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[sig] = p
	e.plans.Store(&m)
}
