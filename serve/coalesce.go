package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	sdquery "repro"
)

// Request coalescing: the admission layer between /v1/topk handlers and the
// engine. Concurrently-arriving single queries are gathered into one
// SDIndex.BatchTopK call, which forks one task per query over the index's
// WithWorkers goroutines with pooled result buffers, each query running
// whole on one of them. Under load the server therefore executes a few wide
// batches per scheduling quantum rather than hundreds of narrow ones.
//
// Shape: handlers enqueue pending requests on a bounded queue (a full queue
// is the backpressure signal — the handler answers 429 with Retry-After
// without blocking). One collector goroutine drains the queue into batches,
// closing a batch when it reaches maxBatch queries or when the coalescing
// window expires, whichever is first; a window of 0 batches whatever is
// instantaneously queued without waiting. Completed batches are handed to a
// small pool of executor goroutines — the per-endpoint concurrency limit
// for /v1/topk — which grab the server's current index (one atomic load, so
// an admin swap never tears a batch) and run BatchTopK.
//
// Failure isolation: BatchTopK aborts a whole batch on its first error, so
// an executor that sees a batch error falls back to per-query TopK calls —
// each request then gets exactly its own result or its own error, and one
// bad query (say, a role flip the decoder cannot see) never poisons the
// neighbors it was coalesced with.

// errQueueFull is the backpressure signal: the admission queue is at
// capacity. Handlers translate it into 429 + Retry-After.
var errQueueFull = errors.New("serve: query queue full")

// errDraining is returned to requests abandoned in the queue at shutdown.
var errDraining = errors.New("serve: server draining")

// pending is one in-flight coalesced request. box is the indexBox the
// handler decoded the query against: the executor runs the query against
// exactly that box, never against whatever box is current at execution
// time — a swap between decode and execution must not run a query
// validated for one index's dimensionality against a different index.
// The done channel is buffered so the executor's completion signal never
// blocks on a handler that gave up (request context expired); such orphans
// are simply left to the GC instead of returning to the pool.
type pending struct {
	ctx  context.Context
	box  *indexBox
	q    sdquery.Query
	res  []sdquery.Result
	err  error
	done chan struct{}
}

type coalescer struct {
	queue    chan *pending
	jobs     chan []*pending
	window   time.Duration
	maxBatch int
	met      *metrics

	pool      sync.Pool // *pending
	batchPool sync.Pool // *[]*pending

	quit      chan struct{}
	closeOnce sync.Once
	colWg     sync.WaitGroup
	execWg    sync.WaitGroup
}

func newCoalescer(met *metrics, window time.Duration, maxBatch, queueDepth, executors int) *coalescer {
	co := &coalescer{
		queue:    make(chan *pending, queueDepth),
		jobs:     make(chan []*pending),
		window:   window,
		maxBatch: maxBatch,
		met:      met,
		quit:     make(chan struct{}),
	}
	co.colWg.Add(1)
	go co.collect()
	for i := 0; i < executors; i++ {
		co.execWg.Add(1)
		go co.execute()
	}
	return co
}

// do submits one query, pinned to the box it was decoded against, and
// blocks until its batch executes or ctx expires.
func (co *coalescer) do(ctx context.Context, box *indexBox, q sdquery.Query) ([]sdquery.Result, error) {
	p, _ := co.pool.Get().(*pending)
	if p == nil {
		p = &pending{done: make(chan struct{}, 1)}
	}
	p.ctx, p.box, p.q = ctx, box, q
	select {
	case co.queue <- p:
	default:
		p.ctx, p.box, p.q = nil, nil, sdquery.Query{}
		co.pool.Put(p)
		return nil, errQueueFull
	}
	select {
	case <-p.done:
		res, err := p.res, p.err
		p.ctx, p.box, p.q, p.res, p.err = nil, nil, sdquery.Query{}, nil, nil
		co.pool.Put(p)
		return res, err
	case <-ctx.Done():
		// The executor still owns p and will signal into the buffered done
		// channel; p is abandoned to the GC rather than reused.
		return nil, ctx.Err()
	case <-co.quit:
		// The coalescer is shutting down. Requests enqueued before close()
		// are failed by drainQueue, but one enqueued after the collector's
		// final drain would otherwise wait forever (Handler can be mounted
		// on a caller-owned http.Server that outlives Close). p may still
		// be delivered concurrently; it is abandoned, not reused.
		return nil, errDraining
	}
}

// collect is the single batching goroutine: it blocks for the first request
// of a batch, then widens the batch until maxBatch or the window closes.
// One reused timer arms the window per batch (Go 1.23+ timer semantics:
// Stop/Reset need no channel drain), so the admission path allocates
// nothing per batch.
func (co *coalescer) collect() {
	defer co.colWg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		var first *pending
		select {
		case first = <-co.queue:
		case <-co.quit:
			co.drainQueue()
			return
		}
		bp, _ := co.batchPool.Get().(*[]*pending)
		if bp == nil {
			bp = new([]*pending)
		}
		batch := append((*bp)[:0], first)
		if co.window > 0 {
			timer.Reset(co.window)
		windowed:
			for len(batch) < co.maxBatch {
				select {
				case p := <-co.queue:
					batch = append(batch, p)
				case <-timer.C:
					break windowed
				case <-co.quit:
					break windowed
				}
			}
			timer.Stop()
		} else {
		instant:
			for len(batch) < co.maxBatch {
				select {
				case p := <-co.queue:
					batch = append(batch, p)
				default:
					break instant
				}
			}
		}
		*bp = batch
		// Handing the batch off blocks only while every executor is busy —
		// which backs pressure up into the bounded queue and, past that,
		// into 429s. Executors outlive the collector (jobs closes after this
		// goroutine returns), so this send cannot deadlock at shutdown.
		co.jobs <- *bp
	}
}

// drainQueue fails whatever requests are still queued at shutdown. Their
// handlers have typically already given up (HTTP shutdown waits for
// handlers, and do() returns on context expiry), so this is bookkeeping,
// not user-visible behavior.
func (co *coalescer) drainQueue() {
	for {
		select {
		case p := <-co.queue:
			p.err = errDraining
			p.done <- struct{}{}
		default:
			return
		}
	}
}

func (co *coalescer) execute() {
	defer co.execWg.Done()
	for batch := range co.jobs {
		co.run(batch)
	}
}

// queriesPool recycles the per-batch query slice.
var queriesPool = sync.Pool{New: func() any { return new([]sdquery.Query) }}

// run executes one batch and delivers per-request results. Requests are
// grouped by the box each was decoded against, and every group executes
// against its own box's index: under a concurrent swap a batch can straddle
// two boxes, and running the whole batch against either one would execute
// queries validated for the other index's dimensionality against the wrong
// engine. Outside a swap every request shares one box, so the grouping
// degenerates to a single pointer comparison per request.
func (co *coalescer) run(batch []*pending) {
	// Drop requests whose context already expired: their handlers are gone,
	// and the engine shouldn't pay for them.
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.err = err
			p.done <- struct{}{}
			continue
		}
		live = append(live, p)
	}
	for len(live) > 0 {
		box := live[0].box
		n := 0
		for i := range live {
			if live[i].box == box {
				live[n], live[i] = live[i], live[n]
				n++
			}
		}
		co.runGroup(box, live[:n])
		live = live[n:]
	}
	co.putBatch(batch)
}

// runGroup executes one same-box group of live requests as a single engine
// batch.
func (co *coalescer) runGroup(box *indexBox, live []*pending) {
	qp := queriesPool.Get().(*[]sdquery.Query)
	queries := (*qp)[:0]
	for _, p := range live {
		queries = append(queries, p.q)
	}
	// Cancellation plumbing for the whole batch: the engine work is cut
	// short once EVERY waiter has given up (one request's disconnect must
	// not kill its coalesced neighbors), so a batch of timed-out requests
	// sheds its engine load instead of running to termination. The watcher
	// waits on each context in turn — total wait = max over contexts — and
	// is reaped before the batch slice returns to the pool.
	batchCtx, cancel := context.WithCancel(context.Background())
	stopWatch := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for _, p := range live {
			select {
			case <-p.ctx.Done():
			case <-stopWatch:
				return
			}
		}
		cancel()
	}()
	out, err := box.idx.BatchTopKContext(batchCtx, queries)
	close(stopWatch)
	<-watcherDone
	cancel()
	if err != nil {
		// Per-query fallback: each request gets its own result or its own
		// error, under its own context — one bad or expired query never
		// poisons the neighbors it was coalesced with. Deliberately NOT
		// counted by observeBatch: these queries executed one at a time,
		// and counting them would let coalesced_batch_mean report healthy
		// batching while every batch was actually falling back (the exact
		// collapse the bench diff gate watches for).
		for _, p := range live {
			p.res, p.err = box.idx.TopKContext(p.ctx, p.q)
			p.done <- struct{}{}
		}
	} else {
		for i, p := range live {
			p.res = out[i]
			p.done <- struct{}{}
		}
		co.met.observeBatch(len(live))
	}
	clear(queries)
	*qp = queries[:0]
	queriesPool.Put(qp)
}

func (co *coalescer) putBatch(batch []*pending) {
	clear(batch)
	bp := batch[:0]
	co.batchPool.Put(&bp)
}

// close stops the coalescer: the collector exits (failing queued strays),
// then the job channel closes and the executors drain what was already
// batched. Idempotent.
func (co *coalescer) close() {
	co.closeOnce.Do(func() {
		close(co.quit)
		co.colWg.Wait()
		close(co.jobs)
		co.execWg.Wait()
	})
}
