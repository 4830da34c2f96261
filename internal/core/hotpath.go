package core

import (
	"fmt"
	"math"

	"repro/internal/dimlist"
	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/query"
	"repro/internal/topk"
)

// maxBatch is the widest per-subproblem bulk fetch: the engine's leaf-cursor
// cap, so one adaptive batch can drain a whole packed leaf run.
const maxBatch = 64

// subproblem is one term of Eqn. 10 evaluated over one sealed segment: an
// iterator over the segment's points in decreasing contribution order plus
// an upper bound on the contribution of any point it has not yet produced.
// The contract is batch-oriented: nextBatch fills dst with up to len(dst)
// emissions per call (0 when exhausted) and returns the post-batch frontier
// bound, so the aggregation loop pays one virtual dispatch per run instead
// of per point; bound peeks the same value without fetching, which the
// bound-driven scheduler uses to seed its ordering before the first access.
// Emission IDs are ID ranks within the segment; the aggregation translates
// them to local rows through the segment's byID and on to global dataset IDs
// through its ID map.
type subproblem interface {
	nextBatch(dst []query.Emission) (n int, bound float64)
	bound() float64
}

// pairSub adapts a 2D §4 stream. The Stream is stored by value so a pooled
// query context reuses its cursor, merge, and heap storage across queries.
type pairSub struct {
	st topk.Stream
}

func (p *pairSub) nextBatch(dst []query.Emission) (int, float64) { return p.st.NextBatch(dst) }

func (p *pairSub) bound() float64 {
	if sc, ok := p.st.PeekScore(); ok {
		return sc
	}
	return math.Inf(-1)
}

// dimSub adapts a 1D sorted-list iterator, also stored by value.
type dimSub struct {
	it dimlist.Iter
}

func (d *dimSub) nextBatch(dst []query.Emission) (int, float64) { return d.it.NextBatch(dst) }

func (d *dimSub) bound() float64 { return d.it.Bound() }

// subRef carries the per-subproblem segment context the aggregation needs at
// emission time: the owning segment (ID translation, random-access rows),
// its snapshot tombstones, and its ordinal in the snapshot stack (the
// scheduler groups sibling bounds per segment).
type subRef struct {
	seg  *segment
	tomb []uint64
	ord  int32
}

// intAscending is the collector's tie order (ascending global dataset ID),
// shared so pooled collectors carry no per-query closure.
func intAscending(a, b int) bool { return a < b }

// queryCtx is the pooled per-query state of TopKAppend: weights, signed
// weights, subproblem storage, frontier bounds, batch sizes, per-segment
// sums and pads, the emission buffer, the seen bitset, the collector with
// its drain buffer, and the query's plan (plan.go). One context cycles
// through queries via the engine's sync.Pool; on a compacted engine (one
// sealed segment, empty memtable) a warm context replays queries with zero
// heap allocations.
type queryCtx struct {
	e  *Engine
	sn *snapshot // the query's frozen epoch

	// The query's plan (derivePlan): effective and signed weights, the
	// layout's surviving pair and lone-dimension ordinals, and the pad of the
	// zone sweep's block bounds.
	w       []float64
	signed  []float64
	pairs   []int32
	lone    []int32
	zonePad float64

	pairSubs []pairSub // value storage; subs holds pointers into it
	dimSubs  []dimSub
	nPair    int // pairSubs in use (their streams need closing)
	nDim     int
	subs     []subproblem
	refs     []subRef // parallel to subs

	bounds  []float64
	bsize   []int
	rate    []float64 // measured frontier descent per access (scheduler.go)
	anchorB []float64 // bound at the start of the current rate window
	sinceN  []int     // accesses accumulated in the current rate window

	segSum  []float64 // per-segment Σ bounds (scheduler scratch)
	segPad  []float64 // per-segment float-error pad
	segDone []bool    // segment fully enumerated (one sub exhausted) or retired

	emit [maxBatch]query.Emission
	// Candidate batch scratch: runBatch defers the emissions that survive its
	// masks and prune to these arrays and scores the whole batch with one
	// column-sweep kernel call instead of a strided per-row loop.
	candRow    [maxBatch]int32
	candGID    [maxBatch]int32
	candScore  [maxBatch]float64
	sweepScore [sweepBlock]float64 // one sweep block's scores (sweep.go)
	zoneBound  []float64           // a zone sweep's block bounds (sweep.go)
	zoneHeap   []int32             // its best-first heap of block ordinals
	seen       []uint64            // bitset over global dataset IDs; sized and cleared only for streams
	coll       *pq.TopK[int]
	drain      []pq.Scored[int]

	// done is the query's optional cancellation signal (a context's Done
	// channel on the serving path); nil means the query runs to completion.
	// The scheduler loop polls it once per scheduling step, so cancellation
	// latency is one adaptive batch (≤ maxBatch sorted accesses), and the
	// context is released back to the pool on every exit path — a cancelled
	// query leaks no pooled buffers.
	done     <-chan struct{}
	canceled bool
}

// initCtxPool wires the engine's context pool; called once at build time,
// after the layout is fixed.
func (e *Engine) initCtxPool() {
	e.ctxPool.New = func() any {
		return &queryCtx{
			e:      e,
			w:      make([]float64, e.dims),
			signed: make([]float64, e.dims),
			pairs:  make([]int32, 0, len(e.layout.pairs)),
			lone:   make([]int32, 0, len(e.layout.lone)),
			coll:   pq.NewTopKOrdered[int](1, intAscending),
		}
	}
}

// getCtx acquires a context sized for the given snapshot: the subproblem
// and scheduler arrays cover every segment in the stack. Pooled capacity is
// kept across queries, so in steady state (a stable segment count) nothing
// here allocates.
func (e *Engine) getCtx(sn *snapshot) *queryCtx {
	c := e.ctxPool.Get().(*queryCtx)
	c.sn = sn
	npair, ndim := len(e.layout.pairs), len(e.layout.lone)
	nseg := len(sn.segs)
	for len(c.pairSubs) < npair*nseg {
		c.pairSubs = append(c.pairSubs, pairSub{})
	}
	for len(c.dimSubs) < ndim*nseg {
		c.dimSubs = append(c.dimSubs, dimSub{})
	}
	nsub := (npair + ndim) * nseg
	if cap(c.bounds) < nsub {
		c.bounds = make([]float64, nsub)
		c.bsize = make([]int, nsub)
		c.rate = make([]float64, nsub)
		c.anchorB = make([]float64, nsub)
		c.sinceN = make([]int, nsub)
	}
	if cap(c.segSum) < nseg {
		c.segSum = make([]float64, nseg)
		c.segPad = make([]float64, nseg)
		c.segDone = make([]bool, nseg)
	}
	clear(c.segPad[:nseg]) // per-segment accumulator: starts every query at zero
	return c
}

// putCtx releases per-query resources (stream heaps back to their pool, the
// seen bitset cleared if a stream was bound) and returns the context.
func (e *Engine) putCtx(c *queryCtx) {
	for i := 0; i < c.nPair; i++ {
		c.pairSubs[i].st.Close()
	}
	if len(c.subs) > 0 {
		clear(c.seen)
	}
	c.nPair, c.nDim = 0, 0
	c.subs = c.subs[:0]
	c.refs = c.refs[:0]
	c.sn = nil
	c.done, c.canceled = nil, false // never pin a request's Done channel
	e.ctxPool.Put(c)
}

// markSeen reports "newly seen" for a global dataset ID. Every emission's ID
// is below the snapshot's total, which the bitset covers by construction.
func (c *queryCtx) markSeen(id int32) bool {
	w := int(id) >> 6
	b := uint64(1) << (uint(id) & 63)
	if c.seen[w]&b != 0 {
		return false
	}
	c.seen[w] |= b
	return true
}

// TopKAppend is TopKWithStats appending into dst: with a caller-reused dst
// the steady-state query path performs no allocation. Results are appended
// best-first; dst's existing elements are preserved.
//
// The flow is snapshot, plan, sweep: one atomic load freezes the engine's
// segment stack (no lock is taken anywhere on this path), the query's shape
// resolves to a plan (plan.go), and the memtable's rows and then every
// sealed segment are swept exactly by the one column kernel (sweep.go), the
// segments block by block under their box bounds. Under StreamOnly the
// plan's subproblems are bound to every sealed segment instead, and the
// bound-driven scheduler (scheduler.go) drives the §5 aggregation to the
// exact answer.
func (e *Engine) TopKAppend(dst []query.Result, spec query.Spec) ([]query.Result, Stats, error) {
	return e.topKAppendAt(e.snap.Load(), dst, spec, nil)
}

// TopKAppendCancel is TopKAppend with a cancellation signal: when done is
// closed, the aggregation stops at its next scheduling step — at most one
// adaptive batch of sorted accesses later — releases every pooled resource,
// and returns ErrCanceled. A nil done behaves exactly like TopKAppend (the
// zero-allocation hot path is unchanged; the poll is nil-guarded). This is
// the deadline plumbing the serving layer's per-request timeouts stand on.
func (e *Engine) TopKAppendCancel(dst []query.Result, spec query.Spec, done <-chan struct{}) ([]query.Result, Stats, error) {
	return e.topKAppendAt(e.snap.Load(), dst, spec, done)
}

// topKAppendAt is TopKAppend evaluated at a pinned snapshot (the View query
// path and the default path share it). The whole query runs on the caller's
// goroutine over the whole segment stack, so its Stats are a pure function of
// the query and the snapshot.
func (e *Engine) topKAppendAt(sn *snapshot, dst []query.Result, spec query.Spec, done <-chan struct{}) ([]query.Result, Stats, error) {
	var stats Stats
	if err := spec.Validate(e.dims); err != nil {
		return dst, stats, err
	}
	c := e.getCtx(sn)
	defer e.putCtx(c)
	c.done = done
	if c.pollCancel() { // already-cancelled requests pay for nothing
		return dst, stats, ErrCanceled
	}

	if err := c.derivePlan(spec); err != nil {
		return dst, stats, err
	}

	// Ties are broken by ascending global dataset ID, exactly like the
	// sequential scan: every engine answer is then byte-identical to the
	// oracle's, and per-partition answers merge into the exact global top-k.
	coll := c.coll
	coll.Reset(spec.K)
	stats.Segments = len(sn.segs)

	// The memtable is swept exactly, up front: its rows are few (bounded by
	// the compaction threshold), they live in no index structure, and
	// seeding the collector with their exact scores only tightens the
	// threshold everything after it prunes against. Its columns run through
	// the same block sweep as the sealed segments' (sweep.go).
	cols, stride, ids, dead := sn.layer(memSrc, e.dims)
	c.sweep(cols, stride, ids, dead, spec.Point)
	stats.Scored += len(ids) - popcount(dead)

	// A default engine sweeps every sealed segment (sweep.go), and so does a
	// stream-pinned one under a plan that binds no stream. Otherwise the
	// plan's subproblems are bound to every segment, and only then does the
	// query need the seen bitset, over the snapshot's whole global ID space.
	if !e.streamOnly || len(c.pairs)+len(c.lone) == 0 {
		for si := range sn.segs {
			c.sweepSegment(si, spec.Point, &stats)
			if c.canceled {
				return dst, stats, ErrCanceled
			}
		}
		return c.appendResults(dst), stats, nil
	}
	if need := (sn.total + 63) / 64; len(c.seen) < need {
		c.seen = make([]uint64, need)
	}
	for si := range sn.segs {
		if err := c.buildSegSubs(spec, si); err != nil {
			return dst, stats, err
		}
	}
	stats.Subproblems = len(c.subs)
	if len(c.subs) > 0 {
		c.runBoundDriven(spec.Point, &stats)
	}
	if c.canceled {
		// The partial collector state is meaningless to the caller; the
		// deferred putCtx still closes every stream and returns the context
		// to the pool, so cancellation leaks nothing.
		return dst, stats, ErrCanceled
	}
	return c.appendResults(dst), stats, nil
}

// buildSegSubs binds the plan's subproblems to one sealed segment — a §4
// tree stream per surviving pair, a sorted-list iterator per surviving lone
// dimension — accumulating that segment's float-error pad.
//
// The pad bounds the absolute floating-point error between a pair stream's
// emitted scores/bounds (computed in normalized projection space and
// rescaled) and the exact contribution α·|Δy| − β·|Δx| the random-access
// rescoring uses. Points are only discarded, and iteration only stopped,
// when they are worse than the k-th best by more than this pad — so a point
// in an exact tie at the k-th rank can never be lost to an ulp of projection
// arithmetic, and answers stay byte-identical to the scan oracle. The 1D
// list subproblems emit exact contributions, but they still contribute
// their weighted reach to the pad: the prune and retirement tests sum
// contributions and sibling bounds in SUBPROBLEM order, which rounds
// differently than the score kernel's dimension-order sum — on an exact tie
// at the k-th rank that one-ulp difference is enough to discard a point the
// oracle keeps (found by fuzzing; regression seed
// testdata/fuzz/FuzzTopKChurn/89b7ba70eb2254e4). floatSlack times the
// summed weighted reach budgets the whole summation chain with orders of
// magnitude to spare. Pads are tracked per segment: a point's unknown
// contributions come only from its own segment's subproblems.
func (c *queryCtx) buildSegSubs(spec query.Spec, si int) error {
	e := c.e
	seg := c.sn.segs[si]
	ref := subRef{seg: seg, tomb: c.sn.tombs[si], ord: int32(si)}
	qpt := spec.Point
	for _, pi := range c.pairs {
		pr := e.layout.pairs[pi]
		rep, attr := pr.Rep, pr.Attr
		wr, wa := c.w[rep], c.w[attr]
		ps := &c.pairSubs[c.nPair]
		if err := seg.trees[pi].StreamInto(&ps.st, geom.Point{X: qpt[attr], Y: qpt[rep]}, wr, wa); err != nil {
			return fmt.Errorf("core: pair (%d, %d): %w", rep, attr, err)
		}
		c.nPair++
		c.segPad[ref.ord] += floatSlack * (wr*c.sn.reach(rep, qpt[rep]) + wa*c.sn.reach(attr, qpt[attr]))
		c.subs = append(c.subs, ps)
		c.refs = append(c.refs, ref)
	}
	for _, li := range c.lone {
		d := e.layout.lone[li]
		ds := &c.dimSubs[c.nDim]
		c.nDim++
		seg.lists[li].InitIter(&ds.it, qpt[d], c.w[d], e.roles[d] == query.Attractive)
		c.segPad[ref.ord] += floatSlack * c.w[d] * c.sn.reach(d, qpt[d])
		c.subs = append(c.subs, ds)
		c.refs = append(c.refs, ref)
	}
	return nil
}

// appendResults drains the collector into dst best-first via the pooled
// drain buffer.
func (c *queryCtx) appendResults(dst []query.Result) []query.Result {
	c.drain = c.coll.DrainInto(c.drain[:0])
	for _, s := range c.drain {
		dst = append(dst, query.Result{ID: s.Item, Score: s.Score})
	}
	return dst
}
