package core

import (
	"repro/internal/pq"
	"repro/internal/query"
)

// intAscending is the collector's tie order (ascending global dataset ID),
// shared so pooled collectors carry no per-query closure.
func intAscending(a, b int) bool { return a < b }

// queryCtx is the pooled per-query state of TopKAppend: the query's plan
// (plan.go), the zone sweep's scratch, and the collector with its drain
// buffer. One context cycles through queries via the engine's sync.Pool; on
// a compacted engine (one sealed segment, empty memtable) a warm context
// replays queries with zero heap allocations.
type queryCtx struct {
	e  *Engine
	sn *snapshot // the query's frozen epoch

	// The query's plan (derivePlan): the signed weights of the score kernel
	// and the pad of the zone sweep's block bounds.
	signed  []float64
	zonePad float64

	sweepScore [sweepBlock]float64 // one sweep block's scores (sweep.go)
	zoneBound  []float64           // a zone sweep's block bounds (sweep.go)
	zoneHeap   []int32             // its best-first heap of block ordinals
	coll       *pq.TopK[int]
	drain      []pq.Scored[int]

	// done is the query's optional cancellation signal (a context's Done
	// channel on the serving path); nil means the query runs to completion.
	// The sweep polls it every few thousand rows (sweep.go), and the context
	// is released back to the pool on every exit path — a cancelled query
	// leaks no pooled buffers.
	done     <-chan struct{}
	canceled bool
}

// initCtxPool wires the engine's context pool; called once at build time.
func (e *Engine) initCtxPool() {
	e.ctxPool.New = func() any {
		return &queryCtx{
			e:      e,
			signed: make([]float64, e.dims),
			coll:   pq.NewTopKOrdered[int](1, intAscending),
		}
	}
}

// getCtx acquires a context for the given snapshot.
func (e *Engine) getCtx(sn *snapshot) *queryCtx {
	c := e.ctxPool.Get().(*queryCtx)
	c.sn = sn
	return c
}

// putCtx returns the context to the pool.
func (e *Engine) putCtx(c *queryCtx) {
	c.sn = nil
	c.done, c.canceled = nil, false // never pin a request's Done channel
	e.ctxPool.Put(c)
}

// TopKAppend is TopKWithStats appending into dst: with a caller-reused dst
// the steady-state query path performs no allocation. Results are appended
// best-first; dst's existing elements are preserved.
//
// The flow is snapshot, plan, sweep: one atomic load freezes the engine's
// segment stack (no lock is taken anywhere on this path), the query's shape
// resolves to a plan (plan.go), and the memtable's rows and then every
// sealed segment are swept exactly by the one column kernel (sweep.go), the
// segments block by block under their box bounds.
func (e *Engine) TopKAppend(dst []query.Result, spec query.Spec) ([]query.Result, Stats, error) {
	return e.topKAppendAt(e.snap.Load(), dst, spec, nil)
}

// TopKAppendCancel is TopKAppend with a cancellation signal: when done is
// closed, the sweep stops at its next poll — a few thousand rows later —
// releases every pooled resource, and returns ErrCanceled. A nil done
// behaves exactly like TopKAppend (the zero-allocation hot path is
// unchanged; the poll is nil-guarded). This is the deadline plumbing the
// serving layer's per-request timeouts stand on.
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

	// The memtable is swept first: its rows are few (bounded by the
	// compaction threshold) and carry no block boxes, and seeding the
	// collector with their exact scores only tightens the line every
	// segment's blocks are bounded against.
	cols, stride, ids, dead := sn.layer(memSrc, e.dims)
	c.sweep(cols, stride, ids, dead, spec.Point)
	stats.Scored += len(ids) - popcount(dead)

	for si := range sn.segs {
		c.sweepSegment(si, spec.Point, &stats)
		if c.canceled {
			// The partial collector state is meaningless to the caller; the
			// deferred putCtx returns the context to the pool.
			return dst, stats, ErrCanceled
		}
	}
	return c.appendResults(dst), stats, nil
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
