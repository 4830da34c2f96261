package sdquery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// workerPool is a reusable fixed set of goroutines executing submitted
// closures. It backs both parallel execution paths in the package: an index
// built WithWorkers keeps one for its lifetime, and one query's segment
// fan-out (through the engine's Runner hook) and BatchTopK's task per query
// both run on it. The pool bounds the helper goroutines only — every do
// caller works through its own task list too (see do), so one call runs on
// up to workers+1 goroutines and concurrent calls add their callers on top.
// A nil pool is the index without WithWorkers: do runs on the caller alone.
type workerPool struct {
	tasks      chan func()
	quit       chan struct{}
	workers    int
	once       sync.Once
	dispatches sync.Pool // *dispatch — per-do state, pooled so do allocates nothing
}

// dispatch is the pooled per-call state of do: the claim counter, the batch
// barrier, and a permanent claim-loop closure bound to this struct, so a
// steady-state do call allocates nothing (the closure, counter, and wait
// group it used to heap-allocate per call were a measurable share of the
// intra-query fan-out).
//
// Reuse is made safe by parking the counter: between calls it holds
// dispatchParked, so a worker goroutine still inside run from a previous
// call — it has incremented past the end but not yet returned — reads an
// index far above any real n and leaves without touching f or the wait
// group. do reopens the window with an atomic Store(0) only after f, n, and
// the wait-group add are in place; a claimer can only obtain i < n by
// incrementing the reopened counter, which orders those writes before its
// reads, so a late straggler that wanders into the next call behaves
// exactly like a freshly recruited worker. n is atomic because parked
// stragglers legitimately read it concurrently with the next call's store.
type dispatch struct {
	next atomic.Int64
	n    atomic.Int64
	f    func(i int)
	wg   sync.WaitGroup
	run  func()
}

// dispatchParked closes a dispatch's claim window between do calls: large
// enough that no real batch size reaches it, small enough that straggler
// increments cannot overflow int64.
const dispatchParked = int64(1) << 62

func newDispatch() *dispatch {
	d := &dispatch{}
	d.next.Store(dispatchParked)
	d.run = func() {
		for {
			i := d.next.Add(1) - 1
			if i >= d.n.Load() {
				return
			}
			d.f(int(i))
			d.wg.Done()
		}
	}
	return d
}

// defaultParallelism is the pool-size and segment-count default.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

// poolRunner adapts a workerPool to the engine's core.Runner interface, the
// hook intra-query segment parallelism fans out through. The index owns its
// pool outright, and the only other do caller on it — BatchTopK — runs its
// queries on the engine's sequential schedule, so the no-nested-do rule below
// holds by construction.
type poolRunner struct{ p *workerPool }

func (r poolRunner) Do(n int, f func(i int)) { r.p.do(n, f) }

func newWorkerPool(workers int) *workerPool {
	if workers <= 0 {
		workers = defaultParallelism()
	}
	p := &workerPool{
		tasks:   make(chan func()),
		quit:    make(chan struct{}),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go func() {
			for {
				select {
				case <-p.quit:
					return
				case f := <-p.tasks:
					f()
				}
			}
		}()
	}
	return p
}

// do runs f(0), …, f(n−1) on the pool and blocks until all have finished.
// Indices are claimed from a shared atomic counter by up to workers idle
// goroutines plus the caller itself, so a call costs one closure and one
// wait group however large n is — the per-task closure the previous
// implementation allocated was a measurable share of the batched query
// path. Tasks must not themselves call do on the same pool (the nested
// wait could starve). After close — or when every worker is busy — the
// claim loop runs entirely on the caller's goroutine, so the pool degrades
// to sequential execution rather than blocking.
func (p *workerPool) do(n int, f func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if n == 0 {
		return
	}
	d, _ := p.dispatches.Get().(*dispatch)
	if d == nil {
		d = newDispatch()
	}
	d.f = f
	d.n.Store(int64(n))
	d.wg.Add(n)
	d.next.Store(0) // open the claim window; everything above is now visible
	// Recruitment: burst-dispatch the claim loop to every idle worker up
	// front (an idle pool reaches full parallelism immediately), then keep
	// retrying one non-blocking send per caller-claimed index (workers
	// freed mid-batch — say, by a concurrent call finishing — still join
	// instead of the rest of the batch running sequentially). A send only
	// succeeds when a worker is parked in receive, so a busy or closed
	// pool costs one failed non-blocking send per task and the caller,
	// which always participates, keeps the call live. At most n−1 recruits:
	// the last index might as well run here.
	recruited := 0
	limit := p.workers
	if limit > n-1 {
		limit = n - 1
	}
burst:
	for ; recruited < limit; recruited++ {
		select {
		case p.tasks <- d.run:
		default:
			break burst
		}
	}
	// Panic containment: if f panics on the caller's goroutine and some
	// upstream caller recovers, the unwind must not race recruited workers
	// still claiming indices — callers like TopKAppend return pooled
	// contexts in defers that would run while workers keep writing into
	// them. Poison the counter, settle the wait group's accounting (the
	// panicked index plus every never-claimed one), wait for in-flight
	// workers to drain, then re-panic; the dispatch is parked again but
	// not repooled. (A panic inside a pool worker is unrecovered and
	// crashes the process, as before.)
	defer func() {
		if r := recover(); r != nil {
			claimed := d.next.Swap(int64(n))
			if claimed > int64(n) {
				claimed = int64(n)
			}
			d.wg.Add(-(n - int(claimed))) // indices no one will ever claim
			d.wg.Done()                   // the index whose f panicked
			d.wg.Wait()
			d.next.Store(dispatchParked)
			panic(r)
		}
	}()
	for {
		i := int(d.next.Add(1)) - 1
		if i >= n {
			break
		}
		if recruited < limit {
			select {
			case p.tasks <- d.run:
				recruited++
			default:
			}
		}
		f(i)
		d.wg.Done()
	}
	d.wg.Wait()
	// All n indices are done and every straggler's next claim reads the
	// parked counter, so f can no longer be called; drop it so a pooled
	// dispatch never pins a finished batch's captures.
	d.next.Store(dispatchParked)
	d.f = nil
	p.dispatches.Put(d)
}

// close releases the worker goroutines. Idempotent; a nil pool has none.
func (p *workerPool) close() {
	if p != nil {
		p.once.Do(func() { close(p.quit) })
	}
}

// batchErr tracks the first error of a parallel batch deterministically: the
// error with the smallest task index wins regardless of goroutine timing.
// Once any error is recorded, tasks with larger indices than the recorded
// one skip their remaining work — tasks with smaller indices still run, so
// the smallest-index error is always the one that could still displace the
// record, keeping the reported failure schedule-independent.
type batchErr struct {
	mu     sync.Mutex
	index  int
	err    error
	failed atomic.Bool
}

func (b *batchErr) record(index int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil || index < b.index {
		b.index, b.err = index, err
	}
	b.failed.Store(true)
}

// shouldSkip reports whether the task at index may be abandoned: only when
// an error at a strictly smaller index is already recorded, which this task
// could not displace.
func (b *batchErr) shouldSkip(index int) bool {
	if !b.failed.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err != nil && b.index < index
}

func (b *batchErr) first() error { return b.err }

// QueryStats reports the work one query performed — the quantities the
// paper's analysis reasons about when comparing subproblem granularities.
type QueryStats struct {
	// Subproblems consulted (2D pairs plus 1D leftovers; zero-weight ones
	// are skipped), summed across every sealed segment.
	Subproblems int
	// Segments counts the sealed segments the query planned across. A
	// freshly built or Compact-ed index reports 1 (WithShards(n): n);
	// sustained insert traffic grows it until the background compactor folds
	// the stack back down.
	Segments int
	// Fetched counts sorted-access emissions across all subproblems.
	Fetched int
	// Scored counts distinct points scored exactly — by random access after a
	// sorted access surfaced them, or by a sweep.
	Scored int
	// Swept is the part of Scored that came from sweeping sealed segments'
	// columns end to end instead of streaming them, and SweptSegments the
	// number of segments the planner finished that way: "stream or sweep?"
	// for this query (see the package documentation's Performance section).
	Swept         int
	SweptSegments int
	// Rounds counts scheduler steps — one adaptive batch dispatched to one
	// subproblem.
	Rounds int
	// PlanCacheHits is 1 when the query's derived plan came from the
	// index's plan cache and 0 when it was derived afresh.
	PlanCacheHits int
}

// TopKWithStats answers the query and reports its work counters. Useful for
// understanding convergence on a given dataset (cmd/sdbench regenerates the
// paper's figures of how fetch counts scale against dataset size and
// correlation).
func (s *SDIndex) TopKWithStats(q Query) ([]Result, QueryStats, error) {
	res, st, err := s.eng.TopKWithStats(q.spec())
	if err != nil {
		return nil, QueryStats{}, err
	}
	return convertResults(res), QueryStats(core.Stats(st)), nil
}

// BatchTopK answers many queries as one call: one task per query on the
// index's worker pool (WithWorkers), each query on the sequential schedule —
// queries, not segments, are a batch's parallel unit, so the pool is never
// entered twice — with the caller working through the tasks too. A batch of
// one takes the single-query path and fans out over segments instead.
// Without a pool the queries run in order on the caller. Results are
// returned in query order; the first error (lowest query index) aborts the
// batch.
func (s *SDIndex) BatchTopK(queries []Query) ([][]Result, error) {
	return s.batchTopK(queries, nil)
}

// batchTopK is the shared BatchTopK/BatchTopKContext body; a non-nil done
// channel cancels every in-flight query at its next scheduling step.
func (s *SDIndex) batchTopK(queries []Query, done <-chan struct{}) ([][]Result, error) {
	out := make([][]Result, len(queries))
	seq := len(queries) > 1
	var be batchErr
	s.pool.do(len(queries), func(i int) {
		if be.shouldSkip(i) {
			return
		}
		res, err := s.appendVia(s.eng.View(), nil, queries[i], done, seq)
		if err != nil {
			be.record(i, fmt.Errorf("query %d: %w", i, err))
			return
		}
		out[i] = res
	})
	if err := be.first(); err != nil {
		return nil, err
	}
	return out, nil
}
