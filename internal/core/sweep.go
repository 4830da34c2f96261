package core

import (
	"math"

	"repro/internal/simd"
)

// Sweep or stream. A sealed segment can be answered two exact ways: by its
// pair-tree streams under the §5 aggregation, which touch few rows but pay a
// heap pop, a key blend and a random-access score per sorted access, or by
// one zone-mapped sweep of its columns (below). Neither dominates — streams
// win on large segments the prune line cuts deep into, the sweep wins
// everywhere else — so the engine chooses per segment and per query, from
// the numbers the scheduler already keeps, in one currency: swept rows.
//
//   - Sweeping segment s costs rows(s). That is an upper bound: the sweep
//     skips every block its box bound rules out (below), which on a large
//     segment is most of them, but the planner still prices the whole
//     segment.
//   - A sorted access costs accessCost rows (below).
//   - sweepsFirst: a segment whose sweep costs no more than probing the
//     plan's streams one rate window deep is swept up front like the
//     memtable, before anything is bound; a segment for which that holds
//     under every plan is sealed without an index (Engine.seal).
//   - runBoundDriven retires a streamed segment into a sweep as soon as what
//     its streams have spent plus what they are predicted to still need
//     exceeds its sweep cost, and unconditionally once the spend alone
//     reaches it.
//
// So a query pays, per segment, at most probe + sweep where the sweep wins,
// at most twice the cheaper plan wherever the prediction errs, and exactly
// the stream's cost where the stream wins. Nothing is carried across
// queries: every choice is a function of the query and the snapshot, which
// keeps Stats deterministic. A sweep settles exactly the rows the streams
// had not settled, scoring them with the same per-row arithmetic as the
// stream path's rescoring, into the same order-independent collector, so
// answers are byte-identical whichever way each segment went.
//
// The zone sweep. A sealed segment's rows are STR-tiled into 128-row blocks
// with a min/max box each (tile.go). Its sweep bounds every block by
// simd.BoxBound — BRS's per-rectangle bound, padded by the query's zonePad —
// and scores blocks best bound first, until the best bound left falls
// strictly below the prune line: no row of a block left over can reach the
// top k, since each scores at most its block's bound and the line only
// rises. A tie at the line is still scored, for the collector's ID
// tie-break. The walk's bounds and heap live in the pooled query context, so
// it allocates nothing. The memtable and a segment of one block are swept
// flat, every row.
//
// The memtable is held in the same dimension-major layout as a segment — one
// column block of fixed stride, filled by Insert — so every sweep, of a
// block, a segment or the memtable, runs one kernel: simd.ScoreCols.

// DefaultAccessCost is the price of one sorted access in swept rows — the
// planner's single tuning constant. Measured with BenchmarkPlannerCrossover
// (6 dimensions, k ∈ {1, 5, 50}, one thread of the 2-vCPU 2.1 GHz Xeon this
// repository is benchmarked on), which reports both sides of the ratio. A
// sweep costs 6–10 ns per row including the threshold filter, at every size
// from 10k to 1M rows. A sorted access — tree-heap pop, key blend, seen and
// prune tests, gathered rescore — costs 280–540 ns in the steady state of a
// stream over a cache-resident segment (10k–50k rows), 700–950 ns at 1M rows
// where trees and columns miss cache, and about 1 µs in a stream's first few
// dozen accesses, which pay for binding it and descending its cold tree: the
// accesses the planner's up-front and early bail-out decisions price. That
// is 40–70 rows per access at the cheap end and 100–140 everywhere the
// decision is actually taken; rerunning the benchmark's default column at
// 64, 96, 128 and 192 came out faster at each step on uniform data from 50k
// to 1M rows (1M, k = 5: 11.6, 9.4, 8.4, 7.8 ms against a 6.4 ms sweep and a
// 13.4 ms stream), with the 2-dimensional cell still streaming at all of
// them. 128 is the measured ratio rounded to a power of two, not the fitted
// optimum: the planner's regret is bounded for any value — a wrong one only
// moves the crossover — and erring high is the cheaper mistake, since a
// sweep that should have been a stream costs the ratio's error once while a
// stream that should have been a sweep pays it on every access up to the
// hard stop.
const DefaultAccessCost = 128

// StreamOnly is the Config.AccessCost that pins pure streaming.
const StreamOnly = -1

// resolveAccessCost maps Config.AccessCost to the engine's cost: StreamOnly
// (any negative value) turns the planner off, 0 selects DefaultAccessCost.
func resolveAccessCost(cfg int) int {
	switch {
	case cfg < 0:
		return 0
	case cfg == 0:
		return DefaultAccessCost
	}
	return cfg
}

// probeCost is what probing nsubs streams one rate window deep costs, in
// swept rows — the least a segment's streams can spend before the scheduler
// knows anything about them.
func (e *Engine) probeCost(nsubs int) int { return nsubs * RateWindow * e.accessCost }

// sweepsFirst reports whether a segment is swept before any of the plan's
// nsubs streams is bound to it. A plan with no stream to bind (every weight
// zero) sweeps every segment, under any access cost: with every signed weight
// +0 each row scores +0, and the collector keeps the k lowest live IDs.
func (e *Engine) sweepsFirst(seg *segment, nsubs int) bool {
	return !seg.indexed || nsubs == 0 || seg.rows <= e.probeCost(nsubs)
}

const (
	// sweepBlock rows are scored per kernel call into pooled scratch: 4 KB
	// of scores, resident in L1 next to the collector.
	sweepBlock = 512
	// sweepPollBlocks is the cancellation poll interval of a sweep: every
	// 4096 rows, about the ≈ 25 µs a scheduler step's 64 accesses cost.
	sweepPollBlocks = 8
	// zonePollBlocks is the same interval in a zone sweep's blocks.
	zonePollBlocks = sweepPollBlocks * sweepBlock / blockRows
)

// sweep scores every live row of one layer that the streams have not already
// settled, exactly and block by block, into the collector. The layer is the
// memtable or a sealed segment of one block, both dimension-major column
// blocks: cols with column stride stride, ids and dead its global IDs and
// tombstones.
func (c *queryCtx) sweep(cols []float64, stride int, ids []int32, dead []uint64, qpt []float64) {
	for base, blk := 0, 1; base < len(ids); base, blk = base+sweepBlock, blk+1 {
		if blk%sweepPollBlocks == 0 && c.pollCancel() {
			return
		}
		c.sweepRows(cols, stride, ids, dead, base, min(len(ids), base+sweepBlock), qpt)
	}
}

// sweepRows scores rows [lo, hi) of a layer — at most sweepBlock of them —
// with one kernel call into the collector. Rows below the prune line are
// dropped on the score alone (strictly below: a tie at the k-th rank still
// reaches the collector's ID tie-break), so tombstones and the seen bitset
// are consulted only for the few rows that could enter the top k.
func (c *queryCtx) sweepRows(cols []float64, stride int, ids []int32, dead []uint64, lo, hi int, qpt []float64) {
	coll := c.coll
	scores := c.sweepScore[:hi-lo]
	simd.ScoreCols(scores, cols, stride, lo, qpt, c.signed)
	line := coll.Threshold() // −Inf, which drops nothing, until k rows are kept
	for j, sc := range scores {
		if sc < line {
			continue
		}
		l := lo + j
		if bitGet(dead, l) || c.isSeen(ids[l]) {
			continue
		}
		if coll.Add(int(ids[l]), sc) {
			line = coll.Threshold()
		}
	}
}

// sweepSegment finishes sealed segment si with one sweep and accounts for
// it: every live row the segment's streams had not settled is settled —
// scored, or skipped with its block. A sweep that cancellation cut short is
// not counted.
func (c *queryCtx) sweepSegment(si int, qpt []float64, stats *Stats) {
	seg, dead := c.sn.segs[si], c.sn.tombs[si]
	n := seg.rows - popcount(dead) - c.segSettled[si]
	scored := n
	if seg.blocks() > 1 {
		scored = c.sweepZones(si, qpt, stats)
	} else {
		c.sweep(seg.cols, seg.rows, seg.ids, dead, qpt)
	}
	if c.canceled {
		return
	}
	stats.Scored += scored
	stats.Swept += n
	stats.SweptSegments++
	if h := c.e.sweptHook; h != nil {
		h()
	}
}

// sweepZones sweeps sealed segment si block by block, best bound first
// (tile.go has the blocks): every block's box bound, padded by the query's
// zonePad, is computed up front, the blocks that could still reach the
// prune line go on a max-heap in the pooled context, and blocks are popped
// and scored until the best remaining bound falls strictly below the line —
// every row of the rest scores at most its block's bound, and the line only
// rises. It returns how many live rows the streams had not settled it
// scored, and polls for cancellation on entry and every zonePollBlocks
// blocks.
func (c *queryCtx) sweepZones(si int, qpt []float64, stats *Stats) (scored int) {
	if c.pollCancel() {
		return 0
	}
	seg, dead := c.sn.segs[si], c.sn.tombs[si]
	dims, nb := c.e.dims, seg.blocks()
	if cap(c.zoneBound) < nb {
		c.zoneBound = make([]float64, nb)
		c.zoneHeap = make([]int32, 0, nb)
	}
	bound := c.zoneBound[:nb]
	h := c.zoneHeap[:0]
	line := c.coll.Threshold()
	for b := range bound {
		lo, hi := seg.box(b, dims)
		ub := simd.BoxBound(lo, hi, qpt, c.signed) + c.zonePad
		if math.IsNaN(ub) { // −Inf + Inf, past the value domain's reach: prune nothing
			ub = math.Inf(1)
		}
		if bound[b] = ub; ub >= line {
			h = append(h, int32(b))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, bound)
	}
	settled := c.segSettled[si] > 0
	popped := 0
	for len(h) > 0 && bound[h[0]] >= c.coll.Threshold() {
		if popped > 0 && popped%zonePollBlocks == 0 && c.pollCancel() {
			return scored
		}
		b := int(h[0])
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0, bound)
		popped++
		lo, hi := b*blockRows, min((b+1)*blockRows, seg.rows)
		c.sweepRows(seg.cols, seg.rows, seg.ids, dead, lo, hi, qpt)
		scored += c.unsettled(seg.ids, dead, lo, hi, settled)
	}
	stats.BlocksBounded += nb
	stats.BlocksSkipped += nb - popped
	return scored
}

// siftDown restores the max-heap order of h, keyed by bound and then by the
// lower block, below position i.
func siftDown(h []int32, i int, bound []float64) {
	above := func(a, b int32) bool {
		return bound[a] > bound[b] || (bound[a] == bound[b] && a < b)
	}
	for {
		best := i
		if l := 2*i + 1; l < len(h) && above(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && above(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// unsettled counts the live rows of [lo, hi) that no stream settled (settled
// false: the segment's streams settled nothing).
func (c *queryCtx) unsettled(ids []int32, dead []uint64, lo, hi int, settled bool) int {
	if dead == nil && !settled {
		return hi - lo
	}
	n := 0
	for l := lo; l < hi; l++ {
		if !bitGet(dead, l) && !(settled && c.isSeen(ids[l])) {
			n++
		}
	}
	return n
}
