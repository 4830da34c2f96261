package core

import "repro/internal/simd"

// Sweep or stream. A sealed segment can be answered two exact ways: by its
// pair-tree streams under the §5 aggregation, which touch few rows but pay a
// heap pop, a key blend and a random-access score per sorted access, or by
// one contiguous sweep of its columns, which touches every row at streaming
// bandwidth. Neither dominates — streams win on large segments the prune
// line cuts deep into, the sweep wins everywhere else — so the engine
// chooses per segment and per query, from the numbers the scheduler already
// keeps, in one currency: swept rows.
//
//   - Sweeping segment s costs rows(s).
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
// keeps Stats deterministic. A sweep scores exactly the rows the
// streams had not settled, with the same per-row arithmetic as the stream
// path's rescoring, into the same order-independent collector, so answers
// are byte-identical whichever way each segment went.
//
// The memtable is held in the same dimension-major layout as a segment — one
// column block of fixed stride, filled by Insert — so every sweep, of a
// segment or of the memtable, runs one kernel: simd.ScoreCols.

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
)

// sweep scores every live row of one layer that the streams have not already
// settled, exactly and block by block, into the collector. The layer is a
// sealed segment or the memtable, both dimension-major column blocks: cols
// with column stride stride, ids and dead its global IDs and tombstones.
// Rows below the prune line are dropped on the score alone (strictly below:
// a tie at the k-th rank still reaches the collector's ID tie-break), so
// tombstones and the seen bitset are consulted only for the few rows that
// could enter the top k.
func (c *queryCtx) sweep(cols []float64, stride int, ids []int32, dead []uint64, qpt []float64) {
	coll := c.coll
	for base, blk := 0, 1; base < len(ids); base, blk = base+sweepBlock, blk+1 {
		if blk%sweepPollBlocks == 0 && c.pollCancel() {
			return
		}
		scores := c.sweepScore[:min(len(ids)-base, sweepBlock)]
		simd.ScoreCols(scores, cols, stride, base, qpt, c.signed)
		line := coll.Threshold() // −Inf, which drops nothing, until k rows are kept
		for j, sc := range scores {
			if sc < line {
				continue
			}
			l := base + j
			if bitGet(dead, l) || c.isSeen(ids[l]) {
				continue
			}
			if coll.Add(int(ids[l]), sc) {
				line = coll.Threshold()
			}
		}
	}
}

// sweepSegment finishes sealed segment si with one sweep and accounts for
// it: every live row the segment's streams had not settled is scored. A
// sweep that cancellation cut short is not counted.
func (c *queryCtx) sweepSegment(si int, qpt []float64, stats *Stats) {
	cols, stride, ids, dead := c.sn.layer(si, c.e.dims)
	c.sweep(cols, stride, ids, dead, qpt)
	if c.canceled {
		return
	}
	n := len(ids) - popcount(dead) - c.segSettled[si]
	stats.Scored += n
	stats.Swept += n
	stats.SweptSegments++
	if h := c.e.sweptHook; h != nil {
		h()
	}
}
