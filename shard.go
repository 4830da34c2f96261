package sdquery

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
)

// ShardedIndex is the parallel execution layer over the SD-Index: the
// dataset is partitioned round-robin across P shards, each backed by an
// independent core engine, and every query fans out to per-shard goroutines
// on a reusable worker pool. Because the SD-score of a point depends only on
// that point, the exact global top-k is contained in the union of the
// per-shard top-k answers; a bounded allocation-free merge over the
// per-shard heads recovers it, with ties broken by ascending dataset ID
// exactly like the sequential scan — the sharded answer is byte-identical
// to the single-engine one.
//
// Shard engines index rows under their global dataset IDs directly (build
// rows keep their row index, Insert returns the next global ID), so results
// from every engine in the package refer to the same points with no
// translation layer. Queries hold no lock on any shard: each shard engine
// answers from an atomically loaded snapshot of its immutable segment
// stack, so TopK and BatchTopK proceed concurrently with Insert, Remove,
// and background compaction on every shard. Insert and Remove serialize
// only on the index's small routing table.
//
// Close releases the worker pool's goroutines; the index remains usable
// afterwards, degrading to sequential execution on the caller's goroutine.
type ShardedIndex struct {
	roles []Role
	pool  *workerPool

	// mu guards the routing table and the insert cursor — writer-side state
	// only; queries never take it.
	mu       sync.Mutex
	byGlobal []int32 // global ID → owning shard
	next     int     // round-robin insert cursor

	shards []*shard

	// ctxPool recycles fan-out state — per-(query × shard) result buffers,
	// spec tables, merge cursors — across TopK and BatchTopK calls, so the
	// sharded grid reuses contexts instead of allocating per call.
	ctxPool sync.Pool
}

// shardedCtx is the pooled fan-out state of one TopK or BatchTopK call.
type shardedCtx struct {
	bufs  [][]query.Result // one reusable result buffer per (query × shard) task
	specs []query.Spec
	pos   []int        // merge cursors, one per shard
	stats []core.Stats // per-shard counters for the stats-reporting surface
}

func (s *ShardedIndex) getCtx(tasks int) *shardedCtx {
	c, _ := s.ctxPool.Get().(*shardedCtx)
	if c == nil {
		c = &shardedCtx{pos: make([]int, len(s.shards))}
	}
	for len(c.bufs) < tasks {
		c.bufs = append(c.bufs, nil)
	}
	return c
}

func (s *ShardedIndex) putCtx(c *shardedCtx) {
	// Specs reference caller-owned Point/Weights slices; drop them so a
	// pooled idle context never pins a request buffer. Result buffers hold
	// no pointers and stay for reuse.
	clear(c.specs)
	c.specs = c.specs[:0]
	s.ctxPool.Put(c)
}

type shard struct {
	eng *core.Engine
}

// NewShardedIndex builds a sharded SD-Index over data (row-major, n × d)
// with the given build-time roles. WithShards and WithWorkers size the
// partition and the pool; the remaining SDOptions configure every per-shard
// engine exactly as they configure NewSDIndex. Shard engines are built
// concurrently.
//
// Points are dealt round-robin: global row i lives on shard i mod P. Data-
// dependent pairing strategies (PairByCorrelation, PairByVariance) are
// computed per shard and may choose different pairings on different shards;
// answers are unaffected, only per-shard convergence speed.
func NewShardedIndex(data [][]float64, roles []Role, opts ...SDOption) (*ShardedIndex, error) {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	p := cfg.shards
	if p <= 0 {
		p = defaultParallelism()
	}
	if p > len(data) {
		p = len(data)
	}
	if p < 1 {
		p = 1
	}
	coreCfg, err := cfg.coreConfig(roles)
	if err != nil {
		return nil, err
	}
	if cfg.walDir != "" {
		if err := writeManifest(&cfg, manifestKindSharded, p); err != nil {
			return nil, err
		}
	}
	s := &ShardedIndex{
		roles:    append([]Role(nil), roles...),
		byGlobal: make([]int32, len(data)),
		shards:   make([]*shard, p),
	}
	parts := make([][][]float64, p)
	ids := make([][]int32, p)
	for i, row := range data {
		si := i % p
		parts[si] = append(parts[si], row)
		ids[si] = append(ids[si], int32(i))
		s.byGlobal[i] = int32(si)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for si := 0; si < p; si++ {
		s.shards[si] = &shard{}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			cc := coreCfg
			if cfg.walDir != "" {
				cc.WAL = cfg.walConfig(shardWALDir(cfg.walDir, si))
			}
			eng, err := core.NewWithIDs(parts[si], ids[si], cc)
			if err != nil {
				errs[si] = fmt.Errorf("shard %d: %w", si, err)
				return
			}
			s.shards[si].eng = eng
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.pool = newWorkerPool(cfg.workers)
	return s, nil
}

// resultBetter is the global answer order: score descending, dataset ID
// ascending — the scan baseline's order, which every deterministic engine in
// the package reproduces.
func resultBetter(a, b query.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// mergeShards merges per-shard best-first lists into dst under the global
// answer order, emitting at most k results. Shard counts are small, so a
// linear scan over the heads beats a heap, and it allocates nothing (it
// replaced the generic k-way heap merge the sharding layer originally
// used). Global IDs are distinct, so resultBetter is a total order and the
// merge is deterministic.
func mergeShards(dst []Result, lists [][]query.Result, pos []int, k int) []Result {
	for i := range lists {
		pos[i] = 0
	}
	for n := 0; n < k; n++ {
		best := -1
		var bestRes query.Result
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best == -1 || resultBetter(l[pos[i]], bestRes) {
				best, bestRes = i, l[pos[i]]
			}
		}
		if best == -1 {
			break
		}
		pos[best]++
		dst = append(dst, Result{ID: bestRes.ID, Score: bestRes.Score})
	}
	return dst
}

// TopK answers the query, fanning out to every shard on the worker pool and
// merging the per-shard streams into the exact global top k. See Engine.
func (s *ShardedIndex) TopK(q Query) ([]Result, error) {
	return s.TopKAppend(nil, q)
}

// fanOutQuery runs spec on every shard through the pool, filling c.bufs with
// per-shard answers under the batchErr first-error discipline. With a
// non-nil views slice the query runs against those pinned per-shard
// snapshots instead of each shard's live head (the ShardedSnapshot path).
// Shard engines answer lock-free either way — one atomic snapshot load per
// shard. When stats is non-nil it receives shard si's work counters at
// index si; the zero-alloc fast path passes nil. A non-nil done channel
// cancels every shard's aggregation at its next scheduling step (the
// TopKContext path); nil costs nothing.
func (s *ShardedIndex) fanOutQuery(spec query.Spec, c *shardedCtx, stats []core.Stats, views []core.View, done <-chan struct{}) error {
	var be batchErr
	s.pool.do(len(s.shards), func(si int) {
		if be.shouldSkip(si) {
			return
		}
		var (
			res []query.Result
			st  core.Stats
			err error
		)
		if views != nil {
			res, st, err = views[si].TopKAppendCancel(c.bufs[si][:0], spec, done)
		} else {
			res, st, err = s.shards[si].eng.TopKAppendCancel(c.bufs[si][:0], spec, done)
		}
		c.bufs[si] = res[:0] // keep grown capacity pooled
		if err != nil {
			be.record(si, err)
			return
		}
		c.bufs[si] = res
		if stats != nil {
			stats[si] = st
		}
	})
	return be.first()
}

// TopKAppend is TopK appending into dst: with a caller-reused dst and warm
// pools the whole sharded fan-out allocates only the worker dispatch state.
// (context.Background's Done channel is nil, so the delegation costs
// nothing on the uncancellable hot path.)
func (s *ShardedIndex) TopKAppend(dst []Result, q Query) ([]Result, error) {
	return s.TopKAppendContext(context.Background(), dst, q)
}

// TopKWithStats answers the query and reports the work counters summed over
// every shard: total sorted accesses, scored points, subproblems, segments,
// and scheduler rounds across the fan-out, plus how many shard engines
// answered from their plan cache (each shard keeps its own cache, so a
// fully warm fan-out reports PlanCacheHits == Shards()). The diagnostic
// surface behind the per-workload fetched/scored means the benchmark report
// emits for sharded workloads.
func (s *ShardedIndex) TopKWithStats(q Query) ([]Result, QueryStats, error) {
	spec := q.spec()
	p := len(s.shards)
	c := s.getCtx(p)
	defer s.putCtx(c)
	for len(c.stats) < p {
		c.stats = append(c.stats, core.Stats{})
	}
	if err := s.fanOutQuery(spec, c, c.stats[:p], nil, nil); err != nil {
		return nil, QueryStats{}, err
	}
	var total QueryStats
	for _, st := range c.stats[:p] {
		total.Subproblems += st.Subproblems
		total.Segments += st.Segments
		total.Fetched += st.Fetched
		total.Scored += st.Scored
		total.Swept += st.Swept
		total.SweptSegments += st.SweptSegments
		total.Rounds += st.Rounds
		total.PlanCacheHits += st.PlanCacheHits
	}
	return mergeShards(make([]Result, 0, q.K), c.bufs[:p], c.pos, q.K), total, nil
}

// BatchTopK answers many queries, pipelining every (query, shard) unit of
// work across the pool at once rather than looping over queries serially:
// with Q queries and P shards, up to Q·P independent tasks keep every worker
// busy even when individual shard scans are short. Per-task result buffers
// and spec tables come from the index's context pool, so contexts are
// reused across the whole (query × shard) grid. Results are returned in
// query order; the first error (lowest query index, then lowest shard)
// aborts the batch.
func (s *ShardedIndex) BatchTopK(queries []Query) ([][]Result, error) {
	return s.batchTopK(queries, nil)
}

// batchTopK is the shared BatchTopK/BatchTopKContext body; a non-nil done
// channel cancels every in-flight shard aggregation at its next scheduling
// step.
func (s *ShardedIndex) batchTopK(queries []Query, done <-chan struct{}) ([][]Result, error) {
	out := make([][]Result, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	p := len(s.shards)
	c := s.getCtx(len(queries) * p)
	defer s.putCtx(c)
	c.specs = c.specs[:0]
	for _, q := range queries {
		c.specs = append(c.specs, q.spec())
	}
	var be batchErr
	s.pool.do(len(queries)*p, func(t int) {
		if be.shouldSkip(t) {
			return
		}
		qi, si := t/p, t%p
		res, _, err := s.shards[si].eng.TopKAppendCancel(c.bufs[t][:0], c.specs[qi], done)
		c.bufs[t] = res[:0]
		if err != nil {
			be.record(t, fmt.Errorf("query %d: %w", qi, err))
			return
		}
		c.bufs[t] = res
	})
	if err := be.first(); err != nil {
		return nil, err
	}
	// Merging runs on the caller's goroutine: each merge is O(k·P) over
	// already-fetched rows, and the per-shard merge cursors live in the
	// shared context.
	for qi := range queries {
		out[qi] = mergeShards(make([]Result, 0, queries[qi].K), c.bufs[qi*p:(qi+1)*p], c.pos, queries[qi].K)
	}
	return out, nil
}

// Insert adds a point to the next shard in round-robin order and returns its
// global dataset ID. The shard engine indexes the row under that global ID
// directly; only the routing table is locked, so in-flight queries are
// never blocked.
//
// On a WithWAL index the routing lock covers only the log append and
// snapshot publish; the durability wait (the fsync, under SyncAlways)
// happens after the lock is released, so concurrent inserts — even ones
// routed to different shards — stack up in the same commit window and
// share one fsync per shard (group commit). An ErrWAL return means the
// mutation was not acknowledged; it may or may not survive a concurrent
// crash, exactly like an unacknowledged network write.
func (s *ShardedIndex) Insert(p []float64) (int, error) {
	s.mu.Lock()
	si := s.next
	global := len(s.byGlobal)
	wait, err := s.shards[si].eng.InsertWithIDAsync(global, p)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.byGlobal = append(s.byGlobal, int32(si))
	s.next = (si + 1) % len(s.shards)
	s.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return 0, err
		}
	}
	return global, nil
}

// Remove deletes a point by global dataset ID, reporting whether it was
// live. The owning shard tombstones the row in its current snapshot;
// background compaction reclaims the space later. On a WAL index Remove
// waits for durability like Insert but drops the error; use RemoveDurable
// when the caller must distinguish "not live" from "log failed".
func (s *ShardedIndex) Remove(id int) bool {
	ok, _ := s.RemoveDurable(id)
	return ok
}

// RemoveDurable is Remove with the WAL verdict: on a WithWAL index it
// returns ErrWAL when the tombstone could not be made durable, and the
// reported bool is authoritative only when err is nil. Without a WAL it is
// exactly Remove.
func (s *ShardedIndex) RemoveDurable(id int) (bool, error) {
	s.mu.Lock()
	if id < 0 || id >= len(s.byGlobal) || s.byGlobal[id] < 0 {
		// Out of range, or (after recovery) an ID whose row was removed and
		// physically reclaimed before the checkpoint — provably not live.
		s.mu.Unlock()
		return false, nil
	}
	sh := s.shards[s.byGlobal[id]]
	s.mu.Unlock()
	return sh.eng.RemoveDurable(id)
}

// Sync force-fsyncs every shard's write-ahead log regardless of sync
// policy — the shutdown drain: a server running SyncInterval or SyncNever
// calls it so every acknowledged mutation survives power loss too. No-op
// without a WAL; the first error is returned but every shard is synced.
func (s *ShardedIndex) Sync() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.eng.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint writes every shard's current snapshot into its WAL directory
// and retires the log files covered. The background compactors checkpoint
// automatically as sealed log volume accumulates; an explicit call bounds
// recovery time before a planned restart. No-op without a WAL.
func (s *ShardedIndex) Checkpoint() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.eng.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WALStats sums the write-ahead-log counters over every shard; Enabled is
// false without WithWAL. LSN is the maximum shard LSN (shards log
// independently); Err is the first shard's sticky failure, so a non-nil
// Err means at least one shard refuses writes and the index should be
// treated as read-only.
func (s *ShardedIndex) WALStats() WALStats {
	var total WALStats
	for _, sh := range s.shards {
		st := sh.eng.WALStats()
		if !st.Enabled {
			continue
		}
		total.Enabled = true
		total.Appends += st.Appends
		total.Fsyncs += st.Fsyncs
		total.Bytes += st.Bytes
		total.ReplayRecords += st.ReplayRecords
		total.Rotations += st.Rotations
		total.Checkpoints += st.Checkpoints
		if st.LSN > total.LSN {
			total.LSN = st.LSN
		}
		if total.Err == nil {
			total.Err = st.Err
		}
	}
	return total
}

// Compact synchronously folds every shard's segment stack and memtable into
// one sealed segment per shard, dropping tombstoned rows. Queries keep
// flowing throughout.
func (s *ShardedIndex) Compact() {
	for _, sh := range s.shards {
		sh.eng.Compact()
	}
}

// Len reports the number of live points across all shards (one atomic
// snapshot load per shard; no locks).
func (s *ShardedIndex) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.eng.Len()
	}
	return total
}

// Epoch returns the version number of the index's visible state: the sum of
// every shard engine's snapshot epoch (one atomic load per shard, no lock).
// Each component is monotonic, so the sum strictly increases whenever any
// shard publishes a new snapshot (insert, remove, compaction) and two equal
// Epoch readings prove that no shard changed between them — even though the
// per-shard loads are not mutually atomic, a publish landing mid-read can
// only inflate the later reading, never restore an earlier value. That
// makes the epoch a safe cache invalidation key for the serving layer.
func (s *ShardedIndex) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.eng.Epoch()
	}
	return e
}

// Bytes estimates the resident size of all per-shard index structures.
func (s *ShardedIndex) Bytes() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.eng.Bytes()
	}
	return total
}

// Roles returns the build-time dimension roles.
func (s *ShardedIndex) Roles() []Role { return append([]Role(nil), s.roles...) }

// Shards reports the number of data shards.
func (s *ShardedIndex) Shards() int { return len(s.shards) }

// Workers reports the size of the worker pool.
func (s *ShardedIndex) Workers() int { return s.pool.workers }

// Close releases the worker pool's goroutines and flushes and closes every
// shard's write-ahead log. The index remains queryable — subsequent queries
// execute sequentially on the caller's goroutine and reads never touch the
// log — but on a WithWAL index every later mutation fails with ErrWAL.
// Close is idempotent and safe to call concurrently with queries.
func (s *ShardedIndex) Close() {
	s.pool.close()
	for _, sh := range s.shards {
		sh.eng.Close()
	}
}

var _ Engine = (*ShardedIndex)(nil)
