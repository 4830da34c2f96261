package core

import (
	"math"

	"repro/internal/simd"
)

// The §5 aggregation spends sorted accesses across its subproblems in the
// order runBoundDriven picks: every step bulk-fetches from the subproblem
// whose frontier bound is measured to be falling fastest per access. The
// termination threshold is re-checked after every batch, so the loop stops
// the moment the k-th best score clears it, and the final batches are
// clamped to the predicted accesses-to-termination. The aggregation runs
// only under RuntimeOptions.StreamOnly: a default engine sweeps every
// segment instead (sweep.go).

// Why any access order is sound — now per segment. Every subproblem emits
// its segment's points in non-increasing contribution order, so at any
// moment bounds[j] — the contribution of subproblem j's next unfetched
// emission — is an upper bound on the contribution of every point j has not
// yet emitted, no matter how the scheduler has interleaved fetches so far.
// A point lives in exactly one segment and receives contributions only from
// that segment's subproblems, so the two decisions the aggregation makes
// consult sibling bounds within the owning segment alone:
//
//   - Prune at first emission: when a point p first surfaces (from
//     subproblem i of segment s), it has by definition not been emitted by
//     any sibling j ≠ i of s, so contrib_j(p) ≤ bounds[j] for every such
//     sibling — visited or not, because unvisited frontiers only ever bound
//     from above. If contrib_i(p) + Σ_{j≠i, j∈s} bounds[j] + pad_s is still
//     below the k-th best, p's full score cannot reach the top k now or
//     later (the k-th best only rises), and p is discarded for good.
//   - Termination: any point of segment s never emitted anywhere has full
//     score ≤ Σ_{j∈s} bounds[j]; once the k-th best strictly exceeds the
//     padded per-segment sum of EVERY segment still in play, no unseen
//     point can displace a kept one. Memtable rows need no bound — they
//     were all scored exactly before scheduling began.
//
// Neither argument references the order in which frontiers were advanced —
// only that each frontier descends — so any schedule returns the same exact
// answer: the bound-driven one is a choice of cost, not of result (the
// property test compares it across segment splits, layouts and the swept
// plan, and the differential harness against the scan). Bounds start from
// cheap frontier peeks (PeekScore / Bound, no fetch) instead of +Inf, which
// only tightens the same inequalities.

// RateWindow is the minimum number of sorted accesses a frontier's descent
// rate is measured over. Longer windows smooth across plateaus of duplicate
// contributions but probe unwanted frontiers deeper and react later; on the
// evaluation workload fetch counts are nearly flat from 4 to 32 (≈1890 to
// ≈1903 mean accesses), and 8 sits on the flat part while keeping the
// forced probe of a useless frontier cheap.
const RateWindow = 8

// pollCancel reports whether the query's cancellation signal has fired,
// latching the result into c.canceled. The scheduler loop polls it once
// per scheduling step — a nil-guarded non-blocking receive, free on the
// uncancellable hot path — so a cancelled query stops within one adaptive
// batch instead of running its aggregation to termination.
func (c *queryCtx) pollCancel() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		c.canceled = true
		return true
	default:
		return false
	}
}

// runBoundDriven is the §5 aggregation loop. The schedule is
// driven by the subproblems' frontier-bound telemetry: each step drains the
// subproblem whose bound is falling fastest per sorted access (the measured
// descent rate of its frontier, the Quick-Combine heuristic), breaking rate
// ties toward the higher frontier bound and then the lower index. The
// termination threshold is the worst per-segment bound sum, so the steepest
// frontier is the one whose next batch buys the largest threshold decrease
// per access; picking by bound level alone stalls on plateaus (many points
// sharing a contribution), where draining the flat maximum spends accesses
// without moving the threshold while a steeper sibling would.
func (c *queryCtx) runBoundDriven(qpt []float64, stats *Stats) {
	subs := c.subs
	ns := len(subs)
	bounds := c.bounds[:ns]
	bsize := c.bsize[:ns]
	rate := c.rate[:ns]
	anchorB := c.anchorB[:ns]
	sinceN := c.sinceN[:ns]
	refs := c.refs
	nseg := len(c.sn.segs)
	segSum := c.segSum[:nseg]
	segDone := c.segDone[:nseg]
	segPad := c.segPad[:nseg]
	for i, s := range subs {
		bounds[i] = s.bound() // peek, no fetch: live prune line from step one
		bsize[i] = 1
		rate[i] = math.Inf(1) // unknown until a full probe window is measured
		anchorB[i] = bounds[i]
		sinceN[i] = 0
		segDone[refs[i].ord] = false
	}
	for {
		if c.pollCancel() {
			return
		}
		// A subproblem exhausts only after emitting every point of its
		// segment, so one exhausted frontier retires the whole segment:
		// everything in it has been scored or soundly discarded.
		for i, b := range bounds {
			if math.IsInf(b, -1) {
				segDone[refs[i].ord] = true
			}
		}
		// Per-segment frontier sums, recomputed fresh each step — an
		// incrementally maintained sum would accumulate rounding drift the
		// pad does not budget for.
		for s := range segSum {
			segSum[s] = 0
		}
		for i, b := range bounds {
			if !segDone[refs[i].ord] {
				segSum[refs[i].ord] += b
			}
		}
		// Retire every segment whose padded frontier sum has fallen
		// strictly below the k-th best: nothing unseen in it can reach the
		// top k anymore (its sum only falls, the k-th best only rises), so
		// fetching from it would be pure waste. This is the per-segment
		// form of the old single-stack termination test — when the last
		// segment retires, the query is done. Strict inequality, for the
		// same tie-at-the-k-th-rank reason as the prune. The line is the
		// collector's threshold, −Inf until it holds k rows, so nothing
		// retires before then. It is read once per step: the estimate below
		// must see the line this check just passed, or "not yet retired"
		// could turn into a negative distance to go.
		line := c.coll.Threshold()
		for s := range segSum {
			if !segDone[s] && line > segSum[s]+segPad[s] {
				segDone[s] = true
			}
		}
		// The steepest live frontier across all remaining segments. All
		// tie-breaks are deterministic, so the schedule — and every Stats
		// counter — is a pure function of the query and the snapshot.
		best := -1
		for i, b := range bounds {
			if segDone[refs[i].ord] {
				continue
			}
			if best == -1 || rate[i] > rate[best] ||
				(rate[i] == rate[best] && b > bounds[best]) {
				best = i
			}
		}
		if best == -1 {
			break // every segment fully enumerated or retired
		}
		bs := refs[best].ord
		// The sibling sum is re-summed directly, not derived as
		// segSum − bounds[best]: that subtraction re-rounds and can land an
		// ulp BELOW the true sibling sum, making the first-emission prune
		// slightly aggressive — enough, in an exact tie at the k-th rank
		// with pad 0 (1D-only subproblems), to discard a point the oracle
		// keeps. Left-to-right summation over the siblings is the form the
		// soundness argument (and the pad budget) is stated for.
		other := 0.0
		for j, b := range bounds {
			if j != best && refs[j].ord == bs {
				other += b
			}
		}
		// Once the frontier's descent rate is measured, the remaining gap
		// between this segment's padded frontier sum and the prune line
		// predicts how many more accesses termination needs if the frontier
		// keeps its slope.
		size := bsize[best]
		need := math.Inf(1) // predicted accesses to termination; +Inf = unknown
		if math.IsInf(rate[best], 1) {
			// Probe phase: stop exactly at the window edge, so an unwanted
			// frontier costs RateWindow accesses, not a doubled overshoot.
			if rem := RateWindow - sinceN[best]; size > rem {
				size = rem
			}
		} else if r := rate[best]; r > 0 {
			need = (segSum[bs] + segPad[bs] - line) / r // ≥ 0: bs survived the check above; +Inf with no line yet
		}
		// Near termination the adaptive batch overshoots: a 64-wide drain
		// keeps fetching after the threshold has already fallen past the
		// k-th best, so the batch is clamped to the prediction (never below
		// 1; growth bookkeeping in runBatch is untouched, so a frontier that
		// flattens out re-expands).
		if need < float64(size-1) {
			size = int(need) + 1
		}
		if n := c.runBatch(best, size, qpt, segPad[bs], other, stats); n > 0 {
			// Rates are measured over completed windows of at least
			// RateWindow accesses, not per batch: a single-access sample on
			// a plateau of duplicate contributions would read as rate 0 and
			// starve that frontier forever — even when the steepest descent
			// of all lies just past its plateau (the failure mode that made
			// naive greedy 2.4× worse than optimal on real queries). Until
			// its first window completes a frontier keeps rate +Inf, so
			// every subproblem is probed RateWindow deep (highest bound
			// first) before the greedy phase begins. An exhausted frontier
			// stops updating, but exhaustion retires its segment above
			// before its rate is consulted.
			sinceN[best] += n
			if sinceN[best] >= RateWindow {
				rate[best] = (anchorB[best] - bounds[best]) / float64(sinceN[best])
				anchorB[best] = bounds[best]
				sinceN[best] = 0
			}
		}
	}
}

// runBatch performs one scheduling step on subproblem i: bulk-fetch up to
// size emissions, handle each exactly once (tombstone mask, first-emission
// prune against the segment-sibling frontiers, or exact random-access
// scoring), refresh bounds[i] from the batch's returned frontier bound, and
// adapt bsize[i]. otherBounds is Σ bounds over the sibling subproblems of
// the same segment — constant across the batch, since sibling frontiers do
// not move while this one drains. It returns the number of emissions
// fetched.
//
// Scoring is batch-deferred: survivors of the masks and the prune are
// collected first and then scored with one column-sweep kernel call over the
// segment's dimension-major columns, instead of a strided row gather per
// point. Deferral means every survivor is pruned against the threshold as of
// its collection, not after its predecessors' Adds — a point the strictly
// sequential loop would have pruned can therefore still be scored and Added
// here. That Add is always a no-op: the prune inequality proves the point's
// exact score sits strictly below the then-current k-th best, which only
// rises, and the collector ignores entries strictly below its k-th best.
// The answer is byte-identical either way (the ordered collector's content
// is insertion-order-independent); only Scored can read marginally higher.
func (c *queryCtx) runBatch(i, size int, qpt []float64, pad, otherBounds float64, stats *Stats) int {
	n, nb := c.subs[i].nextBatch(c.emit[:size])
	c.bounds[i] = nb
	stats.Rounds++
	if n == 0 {
		return 0
	}
	stats.Fetched += n
	ref := &c.refs[i]
	seg := ref.seg
	coll := c.coll
	// The prune line is hoisted out of the loop: Adds are deferred past it,
	// so the threshold cannot move mid-batch — behaviour is identical to the
	// per-emission consult. It is −Inf, which prunes nothing, until the
	// collector holds k rows.
	line := coll.Threshold()
	nc := 0
	for _, em := range c.emit[:n] {
		l := seg.byID[em.ID] // streams emit ID ranks (segment.go)
		gid := seg.ids[l]
		if !c.markSeen(gid) {
			continue // already scored or soundly discarded
		}
		if bitGet(ref.tomb, int(l)) {
			continue // tombstoned: removed after this segment sealed
		}
		if em.Contrib+otherBounds+pad < line {
			continue // cannot enter the top k, now or later
		}
		c.candRow[nc] = l
		c.candGID[nc] = gid
		nc++
	}
	if nc > 0 {
		stats.Scored += nc
		scores := c.candScore[:nc]
		simd.GatherScore(scores, seg.cols, seg.rows, c.candRow[:nc], qpt, c.signed)
		for j := 0; j < nc; j++ {
			coll.Add(int(c.candGID[j]), scores[j])
		}
	}
	// The batch size adapts: it doubles toward the leaf cap while the
	// subproblem's frontier stays above the prune line (a subproblem that
	// keeps producing viable candidates is drained in whole leaf runs), and
	// snaps back to 1 the moment its entire remaining stream became
	// prunable.
	if grow := !coll.Full() || c.bounds[i]+otherBounds+pad >= coll.Threshold(); grow {
		if c.bsize[i] < maxBatch {
			c.bsize[i] *= 2
			if c.bsize[i] > maxBatch {
				c.bsize[i] = maxBatch
			}
		}
	} else {
		c.bsize[i] = 1
	}
	return n
}
