package core

import (
	"math"
	"sync/atomic"

	"repro/internal/query"
)

// Intra-query segment parallelism: with a Runner configured (Config.Pool),
// one query's sealed segments are fanned out as one task per segment. Each
// task acquires a pooled query context of its own, builds the plan's
// subproblems for just its segment, and runs the engine's configured
// scheduler loop over them into a private collector. The tasks cooperate
// through a single shared word — the threshold floor below — and the parent
// merges the per-segment candidate sets deterministically afterwards.
//
// Why the merged answer is byte-identical to sequential execution. Every
// point of the global top-k living in segment s is, a fortiori, in s's local
// top-k under the same score-then-ascending-ID order, so each kid's
// collector retains every globally relevant candidate of its segment; the
// parent re-Adds all retained candidates into the query's main collector,
// whose content is insertion-order-independent. Pruning inside a kid uses
// max(local k-th best, shared floor): both are lower bounds on the final
// global k-th best (an order statistic only rises as candidates are added),
// so the prune and retirement inequalities discard only points that the
// sequential aggregation also proves irrelevant. Stats, by contrast, are
// timing-dependent — how deep each segment fetches before the floor rises
// depends on sibling progress — which is why the sequential path (Pool nil)
// remains the default and keeps its fully deterministic trace.

// Runner executes f(0), …, f(n−1), possibly concurrently, returning when all
// calls have finished. It is the engine's only parallelism dependency — the
// public layer plugs in its shared worker pool, so one process-wide set of
// goroutines serves both inter-query batch fan-out and intra-query segment
// fan-out.
type Runner interface {
	Do(n int, f func(i int))
}

// qfloor is the shared termination-threshold floor of one parallel query:
// the highest local k-th-best score any segment task has published. Floats
// are CAS-maxed through their IEEE bits; all published values come from
// full collectors, hence are finite, and the −Inf reset loses every
// comparison, so ordering floats and ordering their bit patterns agree.
type qfloor struct {
	bits atomic.Uint64
}

func (f *qfloor) reset()        { f.bits.Store(math.Float64bits(math.Inf(-1))) }
func (f *qfloor) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *qfloor) raise(v float64) {
	nb := math.Float64bits(v)
	for {
		ob := f.bits.Load()
		if math.Float64frombits(ob) >= v {
			return
		}
		if f.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// pruneLine returns the score the prune, retirement, and termination
// inequalities compare against, and whether any line exists yet. Sequentially
// (floor nil) it is exactly the collector's k-th best once full — the
// scheduler loops behave bit-for-bit as before. On the parallel path it is
// raised to the shared floor, which may exist before the local collector
// fills: both candidates are lower bounds on the final global k-th best, so
// every strict-inequality discard they justify is one the sequential
// aggregation also proves (possibly later), and no global top-k member is
// ever dropped.
func (c *queryCtx) pruneLine() (float64, bool) {
	t := math.Inf(-1)
	ok := false
	if c.coll.Full() {
		t, ok = c.coll.Threshold(), true
	}
	if c.floor != nil {
		if f := c.floor.load(); f > t {
			t, ok = f, true
		}
	}
	return t, ok
}

// runParallel is the parallel form of the scheduler dispatch in topKAppendAt:
// one task per sealed segment on the engine's Runner. The memtable has
// already been scored into the parent's collector, so a full parent collector
// seeds the shared floor and every task starts with a live prune line. Each
// task runs in a pooled context of its own (runKid); afterwards the parent
// merges the retained candidate sets — the ordered collector's content is
// insertion-order-independent, so the merge order does not affect the answer
// — propagates the smallest-index error deterministically, and sums the
// per-task work counters. Stats on this path are timing-dependent (how deep
// a segment fetches depends on when siblings raise the floor); the returned
// top-k is not.
func (c *queryCtx) runParallel(pl *queryPlan, spec query.Spec, stats *Stats) error {
	nseg := len(c.sn.segs)
	c.floorStore.reset()
	if c.coll.Full() {
		c.floorStore.raise(c.coll.Threshold())
	}
	if cap(c.kidCtx) < nseg {
		c.kidCtx = make([]*queryCtx, nseg)
		c.kidStats = make([]Stats, nseg)
		c.kidErr = make([]error, nseg)
	}
	c.kidCtx = c.kidCtx[:nseg]
	c.kidStats = c.kidStats[:nseg]
	c.kidErr = c.kidErr[:nseg]
	for i := range c.kidCtx {
		c.kidCtx[i] = nil
		c.kidStats[i] = Stats{}
		c.kidErr[i] = nil
	}
	c.parPl, c.parSpec = pl, spec
	c.e.pool.Do(nseg, c.parFn)
	c.parPl, c.parSpec = nil, query.Spec{} // never pin the caller's slices
	var err error
	for i := 0; i < nseg; i++ {
		k := c.kidCtx[i]
		c.kidCtx[i] = nil
		if c.kidErr[i] != nil && err == nil {
			err = c.kidErr[i]
		}
		c.kidErr[i] = nil
		if k == nil {
			continue
		}
		if k.canceled {
			c.canceled = true
		}
		st := &c.kidStats[i]
		stats.Subproblems += st.Subproblems
		stats.Rounds += st.Rounds
		stats.Fetched += st.Fetched
		stats.Scored += st.Scored
		stats.Swept += st.Swept
		stats.SweptSegments += st.SweptSegments
		k.drain = k.coll.DrainInto(k.drain[:0])
		for _, s := range k.drain {
			c.coll.Add(s.Item, s.Score)
		}
		c.e.putCtx(k)
	}
	return err
}

// runKid is one parallel query's per-segment task: acquire a pooled context
// and either sweep segment i outright (sweep.go) or bind the plan's
// subproblems to it alone and run the engine's configured scheduler loop —
// which may itself finish the segment with a sweep — against a private
// collector plus the shared floor. The parent's seen bitset is NOT shared — a point lives in exactly
// one segment, so per-task bitsets partition the ID space and first-emission
// semantics are preserved. The context is recorded for the parent to drain
// and release; a task that fails to bind records its error and releases its
// context itself.
func (c *queryCtx) runKid(i int) {
	e := c.e
	k := e.getCtx(c.sn)
	k.done = c.done
	k.floor = &c.floorStore
	copy(k.w, c.w)
	copy(k.signed, c.signed)
	k.coll.Reset(c.parSpec.K)
	pl, spec := c.parPl, c.parSpec
	st := &c.kidStats[i]
	if e.sweepsFirst(c.sn.segs[i], pl.nsubs()) {
		c.kidCtx[i] = k
		k.sweepSegment(i, spec.Point, st)
		return
	}
	k.prepSubs(pl)
	if err := k.buildSegSubs(pl, spec, i); err != nil {
		c.kidErr[i] = err
		e.putCtx(k)
		return
	}
	c.kidCtx[i] = k
	st.Subproblems = len(k.subs)
	if len(k.subs) > 0 {
		if e.sched == SchedRoundRobin {
			k.runRoundRobin(spec.Point, st)
		} else {
			k.runBoundDriven(spec.Point, st)
		}
	}
}
