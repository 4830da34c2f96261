// Package top1 implements the paper's §3 index structure: for a projection
// angle and answer size k fixed at build time, the x-axis is partitioned into
// regions inside which the identities of the k highest lower projections
// (and, symmetrically, the k lowest upper projections) never change. A query
// is then a binary search over the region boundaries followed by exact
// scoring of at most 2k candidates.
//
// # Geometry
//
// Working in the scaled intercept space of package geom, the lower
// projections of a point p trace the ∧-shaped function
//
//	f_p(x) = min(u_p + β·x, v_p − β·x)        (apex α·y_p at x = x_p)
//
// over query-axis positions x, and the upper projections trace the ∨-shaped
//
//	g_p(x) = max(v_p − β·x, u_p + β·x).
//
// For every point, SD-score(p, q) = max(f_p(x_q) − α·y_q, α·y_q − g_p(x_q)),
// with the maximum attained by the projection Eqn. 6 selects. The index
// therefore stores the regions of the k-level of the upper envelope of the
// f's and of the lower envelope of the g's (Claims 4 and 5). The ∨ case
// reduces to the ∧ case under the transform (u, v) → (−v, −u), so a single
// sweep implementation serves both.
package top1

import (
	"math"
	"sort"

	"repro/internal/pq"
)

// item is one point in intercept space.
type item struct {
	id   int32
	u, v float64
}

// Region is a maximal x-interval on which the identity of the top-k envelope
// functions is constant. A region covers (previous XEnd, XEnd]; the final
// region has XEnd = +Inf.
type Region struct {
	XEnd float64
	IDs  []int32 // envelope leaders, best first at region entry
}

// sortForSweep orders items for the line sweep: by u descending (the order
// of the ∧ functions at x = −∞), ties by v descending (the eventual order at
// x = +∞), final ties by id for determinism.
func sortForSweep(items []item) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.u != b.u {
			return a.u > b.u
		}
		if a.v != b.v {
			return a.v > b.v
		}
		return a.id < b.id
	})
}

// sweepTop1 is Algorithm 1 of the paper: a single left-to-right scan that
// emits the regions of the (k = 1) upper envelope. items must already be in
// sortForSweep order. beta is the normalized attractive weight sin θ.
func sweepTop1(items []item, beta float64) []Region {
	if len(items) == 0 {
		return nil
	}
	if beta == 0 {
		// θ = 0°: every f_p is the constant α·y_p; one region.
		return []Region{{XEnd: math.Inf(1), IDs: []int32{items[0].id}}}
	}
	var regions []Region
	cur := items[0]
	for _, next := range items[1:] {
		// next overtakes cur iff next's llp intersects cur's rlp, i.e.
		// iff next's v-branch ends above cur's (Claim 5); otherwise next
		// is dominated by cur everywhere and is discarded.
		if next.v > cur.v {
			x := (cur.v - next.u) / (2 * beta)
			regions = append(regions, Region{XEnd: x, IDs: []int32{cur.id}})
			cur = next
		}
	}
	return append(regions, Region{XEnd: math.Inf(1), IDs: []int32{cur.id}})
}

// sweepTopK generalizes the sweep to arbitrary fixed k: it records a region
// boundary whenever the *membership* of the top-k level changes. (The paper
// also re-indexes pure order changes inside the top k; membership suffices
// because queries re-score the k candidates exactly, and it yields strictly
// fewer regions.) items must be in sortForSweep order.
//
// The sweep first drops every point that is k-dominated (≥ k other points
// with u' ≥ u and v' ≥ v dominate it everywhere — it can never enter the
// k-level), then runs a Bentley–Ottmann pass over the surviving "k-skyband":
// the order of two ∧ functions changes at most once, at
// x = (v_hi − u_lo) / 2β, so adjacent-swap events drive the level.
func sweepTopK(items []item, beta float64, k int) []Region {
	if len(items) == 0 {
		return nil
	}
	if k == 1 {
		return sweepTop1(items, beta)
	}
	if beta == 0 {
		ids := make([]int32, 0, k)
		for i := 0; i < len(items) && i < k; i++ {
			ids = append(ids, items[i].id)
		}
		return []Region{{XEnd: math.Inf(1), IDs: ids}}
	}
	items = skyband(items, k)
	n := len(items)
	if n <= k {
		ids := make([]int32, n)
		for i, it := range items {
			ids[i] = it.id
		}
		return []Region{{XEnd: math.Inf(1), IDs: ids}}
	}

	order := make([]int32, n) // order[j] = item index at height rank j (0 = highest)
	pos := make([]int32, n)   // pos[i] = current rank of item i
	for i := range order {
		order[i] = int32(i)
		pos[i] = int32(i)
	}

	type event struct {
		x    float64
		a, b int32 // item indices; a directly above b when scheduled
	}
	events := pq.NewHeap(func(p, q event) bool { return p.x < q.x })
	schedule := func(j int) { // candidate crossing between ranks j and j+1
		if j < 0 || j+1 >= n {
			return
		}
		a, b := items[order[j]], items[order[j+1]]
		if a.u > b.u && a.v < b.v {
			events.Push(event{x: (a.v - b.u) / (2 * beta), a: order[j], b: order[j+1]})
		}
	}
	for j := 0; j < n-1; j++ {
		schedule(j)
	}

	snapshot := func() []int32 {
		ids := make([]int32, k)
		for i := 0; i < k; i++ {
			ids[i] = items[order[i]].id
		}
		return ids
	}

	var regions []Region
	lastX := math.Inf(-1)
	current := snapshot()
	for events.Len() > 0 {
		e := events.Pop()
		if pos[e.a]+1 != pos[e.b] {
			continue // stale: the pair is no longer adjacent
		}
		j := int(pos[e.a])
		x := math.Max(e.x, lastX) // guard against float non-monotonicity
		lastX = x
		order[j], order[j+1] = order[j+1], order[j]
		pos[e.a], pos[e.b] = pos[e.b], pos[e.a]
		if j+1 == k { // the swap crossed the k-level: membership changed
			// On coincident events the intermediate set is valid only on a
			// zero-width interval; keep the region emitted at the first
			// event and let the final snapshot flow into the next region.
			if len(regions) == 0 || regions[len(regions)-1].XEnd != x {
				regions = append(regions, Region{XEnd: x, IDs: current})
			}
			current = snapshot()
		}
		schedule(j - 1)
		schedule(j + 1)
	}
	return append(regions, Region{XEnd: math.Inf(1), IDs: current})
}

// skyband retains the points not dominated (u' ≥ u and v' ≥ v) by k or more
// others. Input must be in sortForSweep order; the order is preserved in the
// output. Runs in O(n log n) using a Fenwick tree over compressed v-ranks.
func skyband(items []item, k int) []item {
	n := len(items)
	vs := make([]float64, n)
	for i, it := range items {
		vs[i] = it.v
	}
	sort.Float64s(vs)
	rank := func(v float64) int { // number of distinct values ≤ v, 1-based rank
		return sort.SearchFloat64s(vs, math.Nextafter(v, math.Inf(1)))
	}
	fw := newFenwick(n)
	kept := items[:0:0]
	for _, it := range items {
		r := rank(it.v)
		// Points processed earlier have u ≥ it.u (sweep order); those with
		// v ≥ it.v dominate it. fw.prefix(r-1) counts v-ranks < r.
		dominators := fw.total() - fw.prefix(r-1)
		if dominators < k {
			kept = append(kept, it)
		}
		fw.add(r, 1)
	}
	return kept
}
