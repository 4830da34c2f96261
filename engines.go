package sdquery

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/baseline/brs"
	"repro/internal/baseline/pe"
	"repro/internal/baseline/scan"
	"repro/internal/baseline/ta"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/query"
)

// SyncPolicy selects when write-ahead-log records are fsynced — the
// durability/latency trade of WithWAL indexes. See the constants.
type SyncPolicy = core.SyncPolicy

// Sync policies. SyncAlways (the default) fsyncs before acknowledging a
// mutation — one group commit covers every writer blocked in the same
// window, so concurrent writers share the fsync. SyncInterval acknowledges
// once the record reaches the OS and fsyncs on a timer (process crashes
// lose nothing; power failures lose at most the last interval). SyncNever
// leaves fsync to log rotation, checkpoints, Sync, and Close.
const (
	SyncAlways   = core.SyncAlways
	SyncInterval = core.SyncInterval
	SyncNever    = core.SyncNever
)

// ErrWAL marks mutations rejected because the index's write-ahead log
// failed (disk full, I/O error). The failure is sticky: the index keeps
// answering queries but refuses further writes until reopened. Opening a
// log that holds a row outside the value domain (|v| > 1e150, written by an
// older build) fails with it too, and leaves the log untouched.
var ErrWAL = core.ErrWAL

// WALStats is the observable state of an index's write-ahead log; see
// SDIndex.WALStats.
type WALStats = core.WALStats

// SDOption configures the SD-Index constructors (New*, Load*, Open*).
type SDOption func(*sdConfig)

type sdConfig struct {
	rt           core.RuntimeOptions // memtable size and segments; only tests set the rest (export_test.go)
	workers      int
	workersSet   bool
	walDir       string
	walFS        faultfs.FS
	syncPolicy   SyncPolicy
	syncInterval time.Duration
}

// parseOptions applies an option list to a zero configuration.
func parseOptions(opts []SDOption) sdConfig {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// shardedDefaults is all the ShardedIndex constructors add to the SDIndex
// ones: a split into GOMAXPROCS segments and GOMAXPROCS batch workers,
// unless the caller's own options (applied after) say otherwise.
func shardedDefaults(opts []SDOption) []SDOption {
	return append([]SDOption{WithShards(0), WithWorkers(0)}, opts...)
}

// wrap finishes a constructor: the index around a built, loaded or recovered
// engine, with the batch workers WithWorkers asks for.
func (c *sdConfig) wrap(eng *core.Engine, err error) (*SDIndex, error) {
	if err != nil {
		return nil, err
	}
	s := &SDIndex{eng: eng, roles: eng.Roles()}
	if c.workersSet {
		s.pool = newWorkerPool(c.workers)
	}
	return s, nil
}

// walConfig materializes the WAL option set for the engine logging under the
// index directory c.walDir.
func (c *sdConfig) walConfig() core.WALConfig {
	return core.WALConfig{Dir: engineWALDir(c.walDir), FS: c.walFS, Policy: c.syncPolicy, Interval: c.syncInterval}
}

// newEngine builds the engine over data under the option set and the
// runtime knobs opt, creating the WAL directory when WithWAL names one; nil
// ids number the rows 0..n−1.
func (c *sdConfig) newEngine(data [][]float64, ids []int32, roles []Role, opt core.RuntimeOptions) (*core.Engine, error) {
	cfg := core.Config{Roles: roles, RuntimeOptions: opt}
	if c.walDir != "" {
		if err := writeManifest(c); err != nil {
			return nil, err
		}
		wal := c.walConfig()
		cfg.WAL = &wal
	}
	if ids == nil {
		return core.New(data, cfg)
	}
	return core.NewWithIDs(data, ids, cfg)
}

// WithMemtableSize sets the memtable row count past which the background
// compactor seals recent inserts into an immutable segment (default 1024).
// Smaller values seal more eagerly — less per-query memtable scanning, more
// frequent tree builds; larger values batch more inserts per seal. Queries
// are exact at every setting.
func WithMemtableSize(rows int) SDOption {
	return func(c *sdConfig) { c.rt.MemtableSize = rows }
}

// WithWAL gives the index a crash-safe write-ahead log rooted at dir.
// Every Insert and Remove is appended — checksummed and length-prefixed —
// to the index's one group-committed log before it is acknowledged, so a
// crash (process kill or, under SyncAlways, power loss) never loses an
// acknowledged mutation: OpenSDIndex/OpenShardedIndex recover the directory
// by loading its last checkpoint and replaying the log tail, truncating torn
// tails instead of failing. dir must be empty or nonexistent at creation; an
// existing durable index is recovered with the Open functions, never
// overwritten.
func WithWAL(dir string) SDOption {
	return func(c *sdConfig) { c.walDir = dir }
}

// WithSyncPolicy selects the WAL fsync policy (default SyncAlways). Only
// meaningful together with WithWAL.
func WithSyncPolicy(p SyncPolicy) SDOption {
	return func(c *sdConfig) { c.syncPolicy = p }
}

// WithSyncInterval sets SyncInterval's fsync cadence (default 100ms). Only
// meaningful together with WithWAL and WithSyncPolicy(SyncInterval).
func WithSyncInterval(d time.Duration) SDOption {
	return func(c *sdConfig) { c.syncInterval = d }
}

// WithWALFS replaces the filesystem the WAL talks to — the fault-injection
// hook the crash-recovery suites use (internal/faultfs.Mem simulates torn
// writes, fsync failures, and power loss deterministically). Production
// indexes leave it unset and get the real filesystem.
func WithWALFS(fs faultfs.FS) SDOption {
	return func(c *sdConfig) { c.walFS = fs }
}

// WithShards splits the index into n sealed segments (n ≤ 0 selects
// GOMAXPROCS). A bulk build seals the n equal contiguous-ID segments
// concurrently, and compaction keeps the stack about that wide as the data
// changes (no fold above ⌈live rows/n⌉; Compact restores n equal segments).
// Answers are unaffected, and every query still runs over the whole stack on
// its caller's goroutine. Without the option NewSDIndex builds one segment;
// the ShardedIndex constructors default to WithShards(0). On Load and Open
// the stack comes from the file or directory as saved and the option only
// steers compaction from there.
func WithShards(n int) SDOption {
	return func(c *sdConfig) {
		if n <= 0 {
			n = defaultParallelism()
		}
		c.rt.Segments = n
	}
}

// WithWorkers sets how many goroutines one BatchTopK call runs its queries
// on, the caller included (n ≤ 0 selects GOMAXPROCS): each query runs whole
// on one of them, and the answers are those of a TopK loop. Concurrent calls
// each bring their own goroutines, so n bounds one call, not total CPU use.
// Single queries always run on the caller's goroutine. Without the option
// (NewSDIndex's default; the ShardedIndex constructors default to
// WithWorkers(0)) a batch runs in order on the caller.
func WithWorkers(n int) SDOption {
	return func(c *sdConfig) { c.workers = n; c.workersSet = true }
}

// SDIndex is the paper's SD-Index: the general top-k engine with k and
// weights supplied at query time. Every index is one engine — one segment
// stack, one write-ahead log, one compactor, one epoch — and every query
// runs on its caller's goroutine. Parallelism is across queries
// (BatchTopK's WithWorkers, concurrent callers) and across segments at seal
// time (WithShards), not a different type.
type SDIndex struct {
	eng   *core.Engine
	roles []Role
	pool  *workerPool // nil without WithWorkers: a batch runs on the caller
	buf   sync.Pool   // *[]query.Result scratch for the Append paths
}

// ShardedIndex is SDIndex under the name of the constructors that default
// to WithShards(0) and WithWorkers(0). It used to be a second engine — P
// independent engines behind a routing table — and is kept so callers of
// those constructors keep compiling. It answers, and counts Stats, exactly
// like an SDIndex built with the same options.
type ShardedIndex = SDIndex

// NewSDIndex builds the SD-Index over data (row-major, n × d) with the
// given build-time roles. Queries may later demote an active dimension to
// Ignored but may not flip attractive and repulsive. With no options the
// index is one sealed segment queried on the caller's goroutine.
func NewSDIndex(data [][]float64, roles []Role, opts ...SDOption) (*SDIndex, error) {
	return newIndex(data, nil, roles, opts)
}

// NewShardedIndex is NewSDIndex defaulting to WithShards(0) and
// WithWorkers(0): GOMAXPROCS segments, sealed concurrently, and GOMAXPROCS
// goroutines per BatchTopK call — what cmd/sdserver builds.
func NewShardedIndex(data [][]float64, roles []Role, opts ...SDOption) (*ShardedIndex, error) {
	return newIndex(data, nil, roles, shardedDefaults(opts))
}

// NewShardedIndexWithIDs is NewShardedIndex for a dataset that carries its
// own global IDs — the constructor a cluster partition uses, so a node
// holding rows {3, 17, 40, …} of the logical dataset answers queries with
// those original IDs and the scatter-gather merge over partitions is
// byte-identical to one index over the whole dataset. ids must be
// non-negative and strictly ascending, one per row.
func NewShardedIndexWithIDs(data [][]float64, ids []int, roles []Role, opts ...SDOption) (*ShardedIndex, error) {
	if len(data) != len(ids) {
		return nil, fmt.Errorf("sdquery: %d rows but %d ids", len(data), len(ids))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("sdquery: empty dataset")
	}
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		if id < 0 || id > math.MaxInt32 {
			return nil, fmt.Errorf("sdquery: id %d outside the supported ID space", id)
		}
		ids32[i] = int32(id)
	}
	return newIndex(data, ids32, roles, shardedDefaults(opts))
}

// newIndex is the one bulk build behind the constructors; nil ids number
// the rows 0..n−1.
func newIndex(data [][]float64, ids []int32, roles []Role, opts []SDOption) (*SDIndex, error) {
	cfg := parseOptions(opts)
	eng, err := cfg.newEngine(data, ids, roles, cfg.rt)
	return cfg.wrap(eng, err)
}

// TopK answers the query. See Engine.
func (s *SDIndex) TopK(q Query) ([]Result, error) {
	return s.TopKAppend(nil, q)
}

// TopKAppend answers the query, appending the results (best first) to dst
// and returning the extended slice. With a caller-reused dst the
// steady-state query path performs no allocation: all per-query state lives
// in pooled contexts inside the engine. dst's existing elements are
// preserved; a nil dst behaves like TopK. The whole path is lock-free —
// snapshot acquisition is a single atomic load (see Snapshot).
func (s *SDIndex) TopKAppend(dst []Result, q Query) ([]Result, error) {
	return s.appendVia(s.eng.View(), dst, q, nil)
}

// Len reports the number of live points.
func (s *SDIndex) Len() int { return s.eng.Len() }

// Epoch returns the version number of the index's current snapshot: 0 at
// construction, bumped by every Insert, Remove, and compaction step (one
// atomic load, no lock). Epochs strictly increase, so equal values from two
// calls prove the visible row set did not change in between — the free
// invalidation key the serving layer's result cache relies on.
func (s *SDIndex) Epoch() uint64 { return s.eng.Epoch() }

// Roles returns the build-time dimension roles.
func (s *SDIndex) Roles() []Role { return append([]Role(nil), s.roles...) }

// Insert adds a point and returns its dataset ID. The row lands in the
// engine's memtable — O(d) work, no index maintenance — and becomes part of
// a sealed segment when the background compactor next runs; queries see it
// immediately either way. Insert never blocks queries.
func (s *SDIndex) Insert(p []float64) (int, error) { return s.eng.Insert(p) }

// Remove deletes a point by dataset ID, reporting whether it was live. The
// row is tombstoned in the current snapshot (removed rows are masked at
// query time) and physically reclaimed by a later compaction. On a WAL
// index Remove waits for durability like Insert but drops the error; use
// RemoveDurable when the caller must distinguish "not live" from "log
// failed".
func (s *SDIndex) Remove(id int) bool { return s.eng.Remove(id) }

// RemoveDurable is Remove with the WAL verdict: on a WithWAL index it
// returns ErrWAL when the tombstone could not be made durable, and the
// reported bool is authoritative only when err is nil. Without a WAL it is
// exactly Remove.
func (s *SDIndex) RemoveDurable(id int) (bool, error) { return s.eng.RemoveDurable(id) }

// Sync force-fsyncs the index's write-ahead log regardless of sync policy —
// the shutdown drain: a server running SyncInterval or SyncNever calls it
// so every acknowledged mutation survives power loss too. No-op without a
// WAL.
func (s *SDIndex) Sync() error { return s.eng.Sync() }

// Checkpoint writes the index's current snapshot into the WAL directory and
// retires the log files it covers. The background compactor checkpoints
// automatically as sealed log volume accumulates; an explicit call bounds
// recovery time before a planned restart. No-op without a WAL.
func (s *SDIndex) Checkpoint() error { return s.eng.Checkpoint() }

// Close flushes and closes the index's write-ahead log. The index stays
// queryable — reads never touch the log — but every later mutation fails
// with ErrWAL on a WAL index. Idempotent, and safe to call concurrently with
// queries.
func (s *SDIndex) Close() { s.eng.Close() }

// WALStats reports the write-ahead log's counters and health; Enabled is
// false without WithWAL. A non-nil Err means the log failed and the index
// is read-only (every mutation returns ErrWAL) until reopened.
func (s *SDIndex) WALStats() WALStats { return s.eng.WALStats() }

// Compact synchronously folds the index's segment stack and memtable into a
// single sealed segment — WithShards(n) equal ones on an index built or
// opened with that option — dropping tombstoned rows. Queries keep flowing
// throughout; use it to finish a bulk-load phase or to pin the zero-alloc
// steady state before latency-critical serving.
func (s *SDIndex) Compact() { s.eng.Compact() }

// Segments reports the number of sealed segments and memtable rows in the
// index's current snapshot — the observable shape of the storage stack that
// background compaction continuously reorganizes.
func (s *SDIndex) Segments() (segments, memRows int) { return s.eng.Segments() }

// Bytes estimates the resident size of the index structures.
func (s *SDIndex) Bytes() int { return s.eng.Bytes() }

// NewScan returns the sequential-scan engine — the exact baseline every
// other engine is validated against.
func NewScan(data [][]float64) (Engine, error) {
	eng, err := scan.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewTA returns the adapted Threshold Algorithm baseline (per-dimension
// sorted lists, one subproblem per dimension).
func NewTA(data [][]float64) (Engine, error) {
	eng, err := ta.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewBRS returns the branch-and-bound ranked search baseline over an
// in-memory R*-tree. nodeCapacity ≤ 0 selects the paper's tuned capacity
// for the data's dimensionality.
func NewBRS(data [][]float64, nodeCapacity int) (Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	if nodeCapacity <= 0 {
		nodeCapacity = brs.NodeCapacityFor(dims)
	}
	eng, err := brs.NewWithCapacity(data, nodeCapacity)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewPE returns the progressive-exploration baseline (NRA-style progressive
// merge over per-dimension lists).
func NewPE(data [][]float64) (Engine, error) {
	eng, err := pe.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

type wrapped struct {
	topk   func(query.Spec) ([]query.Result, error)
	length func() int
}

func (w *wrapped) TopK(q Query) ([]Result, error) {
	res, err := w.topk(q.spec())
	if err != nil {
		return nil, err
	}
	return convertResults(res), nil
}

func (w *wrapped) Len() int { return w.length() }

// Engines must keep satisfying the interface.
var (
	_ Engine = (*SDIndex)(nil)
	_ Engine = (*wrapped)(nil)
)
