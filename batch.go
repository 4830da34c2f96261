package sdquery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerPool is how many goroutines one BatchTopK call runs its queries on:
// the index's WithWorkers setting. It holds no goroutines between calls —
// each do forks its helpers and joins them before returning. A nil pool is
// the index without WithWorkers: do runs on the caller alone.
type workerPool struct {
	workers int
}

// defaultParallelism is the pool-size and segment-count default.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

func newWorkerPool(workers int) *workerPool {
	if workers <= 0 {
		workers = defaultParallelism()
	}
	return &workerPool{workers: workers}
}

// do runs f(0), …, f(n−1) and returns when all have finished: a fork-join
// over min(n, workers) goroutines, the caller and min(n, workers)−1 helpers,
// each claiming indices from one shared counter until none are left. If f
// panics on the caller's goroutine, the counter is closed so the helpers
// claim nothing more, and the panic continues only once they have returned:
// a recovering caller never races a helper still running f. (A panic on a
// helper is unrecovered and ends the process.)
func (p *workerPool) do(n int, f func(i int)) {
	helpers := 0
	if p != nil {
		helpers = min(n, p.workers) - 1
	}
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	fj, _ := forkJoins.Get().(*forkJoin)
	if fj == nil {
		fj = new(forkJoin)
	}
	fj.next.Store(0)
	fj.n, fj.f = n, f
	fj.wg.Add(helpers)
	for range helpers {
		go fj.help()
	}
	defer func() {
		fj.next.Store(int64(n)) // a no-op unless f panicked mid-batch
		fj.wg.Wait()
		fj.f = nil // never pin a finished batch's captures
		forkJoins.Put(fj)
	}()
	fj.claim()
}

// forkJoins pools do's shared state, so a steady-state call allocates only
// its helper goroutines. A call repools the state once its helpers have
// joined, when no goroutine holds it any more.
var forkJoins sync.Pool

// forkJoin is one do call's shared state: the claim counter over f's n
// indices and the helpers' barrier.
type forkJoin struct {
	next atomic.Int64
	n    int
	f    func(i int)
	wg   sync.WaitGroup
}

func (fj *forkJoin) claim() {
	for i := int(fj.next.Add(1)) - 1; i < fj.n; i = int(fj.next.Add(1)) - 1 {
		fj.f(i)
	}
}

func (fj *forkJoin) help() {
	defer fj.wg.Done()
	fj.claim()
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

// QueryStats reports the work one query performed.
type QueryStats struct {
	// Deprecated: Subproblems is always 0. The index answers every segment
	// with a zone sweep and consults no §5 subproblem.
	Subproblems int
	// Segments counts the sealed segments the query planned across. A
	// freshly built or Compact-ed index reports 1 (WithShards(n): n);
	// sustained insert traffic grows it until the background compactor folds
	// the stack back down.
	Segments int
	// Deprecated: Fetched is always 0. The index makes no sorted accesses.
	Fetched int
	// Scored counts distinct points whose exact score the query computed:
	// every memtable row, and the live rows of the blocks of a segment its
	// sweep could not skip.
	Scored int
	// Swept counts the live rows of the sealed segments the query swept —
	// scored, or skipped with their block — and SweptSegments how many
	// segments that was: every sealed segment, since each is answered by one
	// zone sweep (see the package documentation's Performance section).
	Swept         int
	SweptSegments int
	// BlocksBounded counts the 128-row blocks of swept segments whose box
	// bound was computed, and BlocksSkipped those never scored because the
	// bound ruled out every row in them.
	BlocksBounded int
	BlocksSkipped int
	// Deprecated: Rounds is always 0. The index runs no §5 scheduler.
	Rounds int
	// Deprecated: PlanCacheHits is always 0; every query derives its plan.
	PlanCacheHits int
}

// TopKWithStats answers the query and reports its work counters: how many
// segments, blocks and rows its sweeps bounded, skipped and scored.
func (s *SDIndex) TopKWithStats(q Query) ([]Result, QueryStats, error) {
	res, st, err := s.eng.TopKWithStats(q.spec())
	if err != nil {
		return nil, QueryStats{}, err
	}
	return convertResults(res), QueryStats{
		Segments: st.Segments, Scored: st.Scored,
		Swept: st.Swept, SweptSegments: st.SweptSegments,
		BlocksBounded: st.BlocksBounded, BlocksSkipped: st.BlocksSkipped,
	}, nil
}

// BatchTopK answers many queries as one call: one task per query, spread
// over the index's WithWorkers goroutines with the caller among them. Each
// query runs whole on the goroutine that claims it. Without WithWorkers the
// queries run in order on the caller. Results are returned in query order;
// the first error (lowest query index) aborts the batch.
func (s *SDIndex) BatchTopK(queries []Query) ([][]Result, error) {
	return s.batchTopK(queries, nil)
}

// batchTopK is the shared BatchTopK/BatchTopKContext body; a non-nil done
// channel cancels every in-flight query at its next scheduling step.
func (s *SDIndex) batchTopK(queries []Query, done <-chan struct{}) ([][]Result, error) {
	out := make([][]Result, len(queries))
	var be batchErr
	s.pool.do(len(queries), func(i int) {
		if be.shouldSkip(i) {
			return
		}
		res, err := s.appendVia(s.eng.View(), nil, queries[i], done)
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
