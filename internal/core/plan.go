package core

import (
	"fmt"

	"repro/internal/query"
)

// Query planning: deriving, from a query spec, what the §5 aggregation has to
// consult — the surviving (nonzero-weight) 2D pairs, the surviving 1D lone
// dimensions, and the weights of the signed score kernel. Which subproblems
// survive is a pure function of the query's per-dimension shape — its role
// and whether its weight is zero — and of the build-time layout, and costs
// one pass over the dimensions, so every query derives its plan into its
// pooled context.

// derivePlan fills the context's plan for spec and returns the
// role-compatibility failure if spec queries a dimension under the wrong
// role. The plan is:
//
//   - w, the effective weights: the spec weight where the dimension's
//     build-time role is engaged, zero where it is Ignored;
//   - signed, the same weights with the score-kernel sign folded in (+w
//     repulsive, −w attractive);
//   - pairs, indexes into the layout's pair list: the 2D subproblems with at
//     least one nonzero weight (a pair with both weights zero contributes
//     nothing; its bound is 0 by omission);
//   - lone, ordinals into the layout's lone-dimension list whose dimension
//     has nonzero weight;
//   - zonePad, floatSlack times the query's weighted coordinate reach: what
//     a zone sweep adds to every block's box bound. simd.BoxBound already
//     covers every row of its box exactly; the pad keeps a skip from ever
//     resting on the last ulp, the same margin the streams' bounds carry.
//
// Because the layout is fixed at the engine level, the same indices select
// the right tree or list in every sealed segment.
func (c *queryCtx) derivePlan(spec query.Spec) error {
	e := c.e
	clear(c.w)
	clear(c.signed)
	for d := 0; d < e.dims; d++ {
		switch spec.Roles[d] {
		case query.Ignored:
			// contributes nothing
		case e.roles[d]:
			if w := spec.Weights[d]; w != 0 {
				c.w[d] = w
				if e.roles[d] == query.Repulsive {
					c.signed[d] = w
				} else {
					c.signed[d] = -w
				}
			}
		default:
			return fmt.Errorf("core: dimension %d queried as %v but indexed as %v",
				d, spec.Roles[d], e.roles[d])
		}
	}
	c.zonePad = 0
	for d, w := range c.w {
		c.zonePad += w * c.sn.reach(d, spec.Point[d])
	}
	c.zonePad *= floatSlack
	c.pairs = c.pairs[:0]
	for i, pr := range e.layout.pairs {
		if c.w[pr.Rep] != 0 || c.w[pr.Attr] != 0 {
			c.pairs = append(c.pairs, int32(i))
		}
	}
	c.lone = c.lone[:0]
	for li, d := range e.layout.lone {
		if c.w[d] != 0 {
			c.lone = append(c.lone, int32(li))
		}
	}
	return nil
}
