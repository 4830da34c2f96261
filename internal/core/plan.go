package core

import (
	"fmt"
	"math"

	"repro/internal/query"
)

// Query planning: deriving, from a query spec, what the zone sweep needs —
// the signed weights of the score kernel and the pad of its block bounds. It
// costs one pass over the dimensions, so every query derives its plan into
// its pooled context.

// derivePlan fills the context's plan for spec and returns the
// role-compatibility failure if spec queries a dimension under the wrong
// role. The plan is:
//
//   - signed, the effective weights with the score-kernel sign folded in
//     (+w repulsive, −w attractive): the spec weight where the dimension's
//     build-time role is engaged, zero where it is Ignored;
//   - zonePad, floatSlack times the query's weighted coordinate reach: what
//     a zone sweep adds to every block's box bound. simd.BoxBound already
//     covers every row of its box exactly; the pad keeps a skip from ever
//     resting on the last ulp.
func (c *queryCtx) derivePlan(spec query.Spec) error {
	e := c.e
	clear(c.signed)
	for d := 0; d < e.dims; d++ {
		switch spec.Roles[d] {
		case query.Ignored:
			// contributes nothing
		case e.roles[d]:
			if w := spec.Weights[d]; w != 0 {
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
	for d, w := range c.signed {
		c.zonePad += math.Abs(w) * c.sn.reach(d, spec.Point[d])
	}
	c.zonePad *= floatSlack
	return nil
}
