package core

import (
	"math"

	"repro/internal/simd"
)

// One plan: every sealed segment is answered by one zone sweep of its
// columns. A sealed segment's rows are STR-tiled into 128-row blocks with a
// min/max box each (tile.go). Its sweep bounds every block by
// simd.BoxBound — BRS's per-rectangle bound, padded by the query's zonePad —
// and scores blocks best bound first, until the best bound left falls
// strictly below the prune line: no row of a block left over can reach the
// top k, since each scores at most its block's bound and the line only
// rises. A tie at the line is still scored, for the collector's ID
// tie-break. The walk's bounds and heap live in the pooled query context, so
// it allocates nothing. The memtable and a segment of one block are swept
// flat, every row. Every row is scored with the same per-row arithmetic
// into the same order-independent collector as on the stream path, so
// answers are byte-identical to it and to the scan.
//
// Bounding a block costs about as much as scoring a few of its rows, so a
// sweep of a large segment costs its block count plus the rows of the few
// blocks the line does not rule out: at 1M uniform 6-d rows about 0.24 ms a
// query, less than the first thousand sorted accesses of the §5 streams
// cost. Only on 2-d data do the streams still win (BenchmarkStreamVsZone
// maps both). So a default engine seals no pair trees or lone-dimension
// lists (Engine.seal) and binds no stream. RuntimeOptions.StreamOnly keeps
// the §5 aggregation for the paper's figures and the differential suites:
// every segment is streamed, except under a plan that binds no stream
// (every weight zero), which sweeps them all — with every signed weight +0
// each row scores +0, and the collector keeps the k lowest live IDs. A
// segment is either streamed or swept, never both, so a sweep never meets a
// row a stream already settled.
//
// The memtable is held in the same dimension-major layout as a segment — one
// column block of fixed stride, filled by Insert — so every sweep, of a
// block, a segment or the memtable, runs one kernel: simd.ScoreCols.

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

// sweep scores every live row of one layer, exactly and block by block, into
// the collector. The layer is the memtable or a sealed segment of one block,
// both dimension-major column blocks: cols with column stride stride, ids
// and dead its global IDs and tombstones.
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
// reaches the collector's ID tie-break), so tombstones are consulted only for
// the few rows that could enter the top k.
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
		if bitGet(dead, l) {
			continue
		}
		if coll.Add(int(ids[l]), sc) {
			line = coll.Threshold()
		}
	}
}

// sweepSegment answers sealed segment si with one sweep and accounts for it:
// every live row is settled — scored, or skipped with its block. A sweep
// that cancellation cut short is not counted.
func (c *queryCtx) sweepSegment(si int, qpt []float64, stats *Stats) {
	seg, dead := c.sn.segs[si], c.sn.tombs[si]
	n := seg.rows - popcount(dead)
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
// rises. It returns how many live rows it scored, and polls for cancellation
// on entry and every zonePollBlocks blocks.
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
		scored += hi - lo - popcountRange(dead, lo, hi)
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

// popcountRange counts the set bits of [lo, hi) in bits: the tombstoned
// rows of a block.
func popcountRange(bits []uint64, lo, hi int) int {
	n := 0
	for l := lo; l < hi && l>>6 < len(bits); l++ { // a nil bitset counts 0
		if bitGet(bits, l) {
			n++
		}
	}
	return n
}
