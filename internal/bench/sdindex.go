package bench

import (
	"fmt"
	"math"

	"repro/internal/dimlist"
	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/query"
	"repro/internal/topk"
)

// sdIndex is the paper's SD-Index as the figures measure it (§4–§5): the
// repulsive and attractive dimensions are zipped in index order into the
// pairs of Eqn. 10's bijection f, each answered by a §4 top-k tree, and every
// dimension f leaves out by a sorted list. A query binds one sorted-access
// stream per pair or list with a nonzero weight and runs the §5 threshold
// aggregation over them (aggregate), scoring every surfaced point exactly by
// random access. The index is static — one set of trees and lists over every
// row, no storage stack — and Insert and Remove run the paper's §4.3 tree
// updates. It is not safe for concurrent use: the figures query it from one
// goroutine, and its streams, seen set and collector are reused across
// queries.
type sdIndex struct {
	dims  int
	roles []query.Role
	pairs [][2]int // (repulsive, attractive): the tree's y and x axes
	trees []*topk.Index
	lone  []int
	lists []*dimlist.List

	data    []float64 // row-major, by ID; a removed row keeps its values
	removed []bool
	// Per-dimension extrema over every row ever indexed: they size the float
	// pad of the aggregation's bounds.
	minVal, maxVal []float64

	// Per-query state, reused.
	streams []topk.Stream  // parallel to pairs
	iters   []dimlist.Iter // parallel to lone
	subs    []subproblem
	bounds  []float64
	bsize   []int
	rate    []float64 // measured frontier descent per access
	anchor  []float64 // bound at the start of the current rate window
	since   []int     // accesses in the current rate window
	signed  []float64
	seen    []uint64
	emit    [maxBatch]query.Emission
	coll    *pq.TopK[int]
	drain   []pq.Scored[int]
	fetched int // sorted accesses of the last query
}

// subproblem is one term of Eqn. 10, a pair tree's stream or a lone list's
// iterator: every live point in non-increasing contribution order.
// NextBatch fills dst and returns the contribution of the next emission, an
// upper bound on every point it has not produced (−Inf once exhausted).
type subproblem interface {
	NextBatch(dst []query.Emission) (n int, bound float64)
}

// peek is s's next contribution, read without fetching.
func peek(s subproblem) float64 {
	if st, ok := s.(*topk.Stream); ok {
		if sc, ok := st.PeekScore(); ok {
			return sc
		}
		return math.Inf(-1)
	}
	return s.(*dimlist.Iter).Bound()
}

const (
	// maxBatch is the widest bulk fetch from one subproblem: the trees'
	// leaf-cursor cap, so one batch can drain a whole packed leaf run.
	maxBatch = 64
	// rateWindow is the minimum number of sorted accesses a frontier's
	// descent rate is measured over.
	rateWindow = 8
	// floatSlack, times a query's weighted coordinate reach, bounds the drift
	// between the trees' projection-space score arithmetic (normalize, blend,
	// rescale) and the exact contribution, and the rounding of summing
	// contributions in subproblem order rather than the score's dimension
	// order.
	floatSlack = 64 * 0x1p-52
)

// newSDIndex builds the index over data. cfg shapes the trees; a zero
// LeafCap means 64-point packed leaves, the §4 disk-style layout the figures
// use.
func newSDIndex(data [][]float64, roles []query.Role, cfg topk.Config) (*sdIndex, error) {
	if cfg.LeafCap == 0 {
		cfg.LeafCap = 64
	}
	dims := len(roles)
	x := &sdIndex{
		dims: dims, roles: roles,
		data: make([]float64, 0, len(data)*dims), removed: make([]bool, len(data)),
		minVal: make([]float64, dims), maxVal: make([]float64, dims),
		signed: make([]float64, dims),
		coll:   pq.NewTopKOrdered[int](1, func(a, b int) bool { return a < b }),
	}
	for d := range x.minVal {
		x.minVal[d], x.maxVal[d] = math.Inf(1), math.Inf(-1)
	}
	for i, p := range data {
		if err := query.CheckRow(p, dims); err != nil {
			return nil, fmt.Errorf("sd-index: point %d: %w", i, err)
		}
		x.data = append(x.data, p...)
		x.widen(p)
	}
	var rep, attr []int
	for d, r := range roles {
		switch r {
		case query.Repulsive:
			rep = append(rep, d)
		case query.Attractive:
			attr = append(attr, d)
		}
	}
	col := func(d int) []float64 {
		c := make([]float64, len(data))
		for i, p := range data {
			c[i] = p[d]
		}
		return c
	}
	np := min(len(rep), len(attr))
	for i := 0; i < np; i++ {
		tree, err := topk.BuildColumns(col(attr[i]), col(rep[i]), cfg)
		if err != nil {
			return nil, fmt.Errorf("sd-index: pair (%d, %d): %w", rep[i], attr[i], err)
		}
		x.pairs = append(x.pairs, [2]int{rep[i], attr[i]})
		x.trees = append(x.trees, tree)
	}
	for _, d := range append(rep[np:], attr[np:]...) {
		x.lone = append(x.lone, d)
		x.lists = append(x.lists, dimlist.FromColumn(col(d)))
	}
	x.streams = make([]topk.Stream, len(x.pairs))
	x.iters = make([]dimlist.Iter, len(x.lone))
	n := len(x.pairs) + len(x.lone)
	x.bounds, x.rate, x.anchor = make([]float64, n), make([]float64, n), make([]float64, n)
	x.bsize, x.since = make([]int, n), make([]int, n)
	return x, nil
}

func (x *sdIndex) widen(p []float64) {
	for d, v := range p {
		x.minVal[d] = math.Min(x.minVal[d], v)
		x.maxVal[d] = math.Max(x.maxVal[d], v)
	}
}

// row returns the coordinates of row id.
func (x *sdIndex) row(id int) []float64 { return x.data[id*x.dims : (id+1)*x.dims] }

// Insert adds p under the next ID: §4.3's tree insertion into every pair
// tree, and a sorted insertion into every lone list.
func (x *sdIndex) Insert(p []float64) (int, error) {
	if err := query.CheckRow(p, x.dims); err != nil {
		return 0, fmt.Errorf("sd-index: %w", err)
	}
	id := len(x.removed)
	for i, pr := range x.pairs {
		if err := x.trees[i].Insert(geom.Point{ID: id, X: p[pr[1]], Y: p[pr[0]]}); err != nil {
			return 0, err
		}
	}
	for i, d := range x.lone {
		x.lists[i].Insert(p[d], int32(id))
	}
	x.data = append(x.data, p...)
	x.removed = append(x.removed, false)
	x.widen(p)
	return id, nil
}

// Remove deletes row id from every tree and list (§4.3), reporting whether it
// was live.
func (x *sdIndex) Remove(id int) bool {
	if id < 0 || id >= len(x.removed) || x.removed[id] {
		return false
	}
	p := x.row(id)
	for i, pr := range x.pairs {
		x.trees[i].Delete(geom.Point{ID: id, X: p[pr[1]], Y: p[pr[0]]})
	}
	for i, d := range x.lone {
		x.lists[i].Delete(p[d], int32(id))
	}
	x.removed[id] = true
	return true
}

// Bytes is the index's resident size: the trees, 12 bytes per list entry
// (value and ID), and the row-major copy of the rows the queries score.
func (x *sdIndex) Bytes() int {
	total := 8 * len(x.data)
	for _, t := range x.trees {
		total += t.Bytes()
	}
	for _, l := range x.lists {
		total += 12 * l.Len()
	}
	return total
}

// TopK answers spec exactly: the scan's answer, ties broken by ascending ID.
func (x *sdIndex) TopK(spec query.Spec) ([]query.Result, error) {
	return x.TopKAppend(nil, spec)
}

// TopKAppend is TopK appending into dst.
func (x *sdIndex) TopKAppend(dst []query.Result, spec query.Spec) ([]query.Result, error) {
	if err := spec.Validate(x.dims); err != nil {
		return dst, err
	}
	clear(x.signed)
	for d, r := range spec.Roles {
		switch {
		case r == query.Ignored:
		case r != x.roles[d]:
			return dst, fmt.Errorf("sd-index: dimension %d queried as %v but indexed as %v", d, r, x.roles[d])
		case r == query.Repulsive:
			x.signed[d] = spec.Weights[d]
		default:
			x.signed[d] = -spec.Weights[d]
		}
	}
	q := spec.Point
	x.coll.Reset(spec.K)
	x.fetched = 0
	// Bind a stream per pair and a list iterator per lone dimension with a
	// nonzero weight. pad bounds the float error between their
	// contributions and the exact score, so a point is only discarded, and
	// the loop only stops, when it is worse than the k-th best by more than
	// that: a tie at the k-th rank is never lost to an ulp.
	x.subs = x.subs[:0]
	pad := 0.0
	defer func() { // streams hold pooled heaps until closed
		for i := range x.streams {
			x.streams[i].Close()
		}
	}()
	for i, pr := range x.pairs {
		wr, wa := math.Abs(x.signed[pr[0]]), math.Abs(x.signed[pr[1]])
		if wr == 0 && wa == 0 {
			continue
		}
		if err := x.trees[i].StreamInto(&x.streams[i], geom.Point{X: q[pr[1]], Y: q[pr[0]]}, wr, wa); err != nil {
			return dst, err
		}
		pad += floatSlack * (wr*x.reach(pr[0], q[pr[0]]) + wa*x.reach(pr[1], q[pr[1]]))
		x.subs = append(x.subs, &x.streams[i])
	}
	for i, d := range x.lone {
		w := math.Abs(x.signed[d])
		if w == 0 {
			continue
		}
		x.lists[i].InitIter(&x.iters[i], q[d], w, x.roles[d] == query.Attractive)
		pad += floatSlack * w * x.reach(d, q[d])
		x.subs = append(x.subs, &x.iters[i])
	}
	if len(x.subs) == 0 {
		// Every weight zero: every live row scores +0, and the collector
		// keeps the k lowest IDs.
		for id, gone := range x.removed {
			if !gone {
				x.coll.Add(id, x.score(id, q))
			}
		}
	} else {
		if need := (len(x.removed) + 63) / 64; len(x.seen) < need {
			x.seen = make([]uint64, need)
		}
		x.aggregate(q, pad)
		clear(x.seen)
	}
	x.drain = x.coll.DrainInto(x.drain[:0])
	for _, s := range x.drain {
		dst = append(dst, query.Result{ID: s.Item, Score: s.Score})
	}
	return dst, nil
}

// reach bounds |p_d − qv| over every row ever indexed.
func (x *sdIndex) reach(d int, qv float64) float64 {
	if x.minVal[d] > x.maxVal[d] {
		return 0
	}
	return math.Max(math.Abs(x.minVal[d]-qv), math.Abs(x.maxVal[d]-qv))
}

// score is row id's exact SD-score, summed in dimension order like the
// scan's.
func (x *sdIndex) score(id int, q []float64) float64 {
	var s float64
	for d, v := range x.row(id) {
		s += x.signed[d] * math.Abs(v-q[d])
	}
	return s
}

// aggregate is the §5 loop. Every subproblem emits every live point in
// non-increasing contribution order, so bounds[j], the contribution of j's
// next emission, bounds every point j has not emitted, whatever order the
// frontiers were advanced in. Two decisions rest on that:
//
//   - Prune at first emission: a point first surfacing from subproblem i has
//     not been emitted by any sibling j, so its score is at most its
//     contribution plus Σ_{j≠i} bounds[j] plus the pad. Below the k-th best,
//     it can never enter the top k (the k-th best only rises) and is
//     discarded for good.
//   - Termination: a point never emitted scores at most Σ bounds plus the
//     pad; once the k-th best strictly exceeds that, nothing unseen can
//     displace a kept point. One exhausted frontier has emitted every point.
//
// Each step drains the frontier whose bound is measured to fall fastest per
// access (the Quick-Combine heuristic: the termination threshold is the
// bound sum, so the steepest frontier buys the most threshold per access),
// breaking ties toward the higher bound, then the lower index. A rate is
// measured over windows of at least rateWindow accesses, so a plateau of
// equal contributions does not read as rate 0 and starve its frontier;
// until its first window completes a frontier's rate is +Inf, so every one
// is probed that deep first. Batches double while a frontier keeps
// producing viable candidates, and are clamped near termination to the
// accesses its measured rate predicts.
func (x *sdIndex) aggregate(q []float64, pad float64) {
	bounds, rate := x.bounds[:len(x.subs)], x.rate
	for i, s := range x.subs {
		bounds[i] = peek(s)
		x.bsize[i], rate[i], x.anchor[i], x.since[i] = 1, math.Inf(1), bounds[i], 0
	}
	for {
		// The sum is recomputed each step, left to right: an incrementally
		// kept one would drift past what the pad budgets for.
		sum := 0.0
		for _, b := range bounds {
			if math.IsInf(b, -1) {
				return
			}
			sum += b
		}
		line := x.coll.Threshold() // −Inf until k rows are kept
		if line > sum+pad {
			return
		}
		best := 0
		for i, b := range bounds {
			if rate[i] > rate[best] || (rate[i] == rate[best] && b > bounds[best]) {
				best = i
			}
		}
		// The sibling sum is summed directly, not as sum − bounds[best]: that
		// subtraction can round an ulp below the true sum and make the prune
		// discard a point tied at the k-th rank.
		other := 0.0
		for j, b := range bounds {
			if j != best {
				other += b
			}
		}
		size := x.bsize[best]
		need := math.Inf(1)
		if math.IsInf(rate[best], 1) {
			size = min(size, rateWindow-x.since[best]) // probe exactly one window
		} else if r := rate[best]; r > 0 {
			need = (sum + pad - line) / r
		}
		if need < float64(size-1) {
			size = int(need) + 1
		}
		if n := x.fetch(best, size, q, pad, other); n > 0 {
			x.since[best] += n
			if x.since[best] >= rateWindow {
				rate[best] = (x.anchor[best] - bounds[best]) / float64(x.since[best])
				x.anchor[best] = bounds[best]
				x.since[best] = 0
			}
		}
	}
}

// fetch runs one step on subproblem i: it fetches up to size emissions,
// scores each point it surfaces first unless the prune discards it, moves
// bounds[i] to the new frontier and adapts the batch size, which doubles
// toward maxBatch while the frontier can still reach the top k and drops to
// 1 once it cannot. It returns how many emissions it fetched.
func (x *sdIndex) fetch(i, size int, q []float64, pad, other float64) int {
	n, next := x.subs[i].NextBatch(x.emit[:size])
	x.bounds[i] = next
	x.fetched += n
	coll := x.coll
	for _, em := range x.emit[:n] {
		w, b := em.ID>>6, uint64(1)<<(em.ID&63)
		if x.seen[w]&b != 0 {
			continue
		}
		x.seen[w] |= b
		if em.Contrib+other+pad < coll.Threshold() {
			continue
		}
		coll.Add(int(em.ID), x.score(int(em.ID), q))
	}
	if !coll.Full() || next+other+pad >= coll.Threshold() {
		x.bsize[i] = min(2*x.bsize[i], maxBatch)
	} else {
		x.bsize[i] = 1
	}
	return n
}
