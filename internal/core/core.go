// Package core implements the served SD-Index: an exact SD-score top-k
// engine over a storage stack of immutable sealed segments plus a small
// mutable memtable absorbing recent Inserts.
//
// A sealed segment holds STR-tiled column data with a min/max box per
// 128-row block, built once and never mutated. Queries acquire a
// copy-on-write snapshot with one atomic load and hold no lock at all: the
// memtable's few rows are scored exactly up front, and every sealed segment
// is answered by one zone sweep that skips whole blocks by their box bound
// (sweep.go; tombstones mask removed rows) — the box bound of the paper's
// BRS baseline (§6.1) applied to storage blocks. A background compactor
// seals the memtable into a segment past a size threshold and folds small
// segments together, amortizing seals off both the query and the insert
// path. Sealed segments serialize to a versioned binary format (Save /
// Load), so a persisted index restarts without re-ingesting its rows.
//
// The paper's §5 aggregation over §4 pair trees is not here: it is the
// figures' own static SD-Index in internal/bench, and this package imports
// neither internal/topk nor internal/dimlist.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// ErrCanceled is returned by the cancellation-aware query paths
// (TopKAppendCancel) when the caller's done channel closes before the
// aggregation terminates. The public API wrappers translate it into the
// originating context's error.
var ErrCanceled = errors.New("core: query canceled")

// defaultMemtableSize is the memtable row count past which the background
// compactor seals it into a segment. Small enough that the per-query flat
// sweep of the memtable stays a rounding error next to the zone-swept
// segments, large enough that seals amortize over many inserts.
const defaultMemtableSize = 1024

// Config controls engine construction.
type Config struct {
	// Roles fixes each dimension's role at build time (the evaluation's
	// setting). Queries may demote an active dimension to Ignored but may
	// not flip roles.
	Roles []query.Role
	// WAL, when non-nil, makes every mutation durable: Insert and Remove
	// append checksummed records to a per-engine log before publishing, and
	// Open replays the tail over the last checkpoint after a crash. See
	// wal.go.
	WAL *WALConfig
	RuntimeOptions
}

// RuntimeOptions are the engine knobs that change neither the answers nor the
// persisted file. Config embeds them; Load and Open take them fresh, while
// the structural configuration — the roles — comes from the file. apply is
// the one place they reach an Engine.
type RuntimeOptions struct {
	// MemtableSize is the memtable row count past which the background
	// compactor seals it into an immutable segment. Default 1024.
	MemtableSize int
	// DisableCompaction turns the background compactor off entirely: the
	// memtable grows without bound (queries stay correct, scanning it
	// exactly) and segments are only ever folded by an explicit Compact.
	DisableCompaction bool
	// Segments is how many large sealed segments the engine keeps: the initial
	// build splits the dataset into that many equal contiguous-ID segments
	// (sealed concurrently), and compaction never folds segments into an
	// output above ⌈live rows/Segments⌉, so the stack stays that wide as the
	// data grows or shrinks. 0 or 1 (the default) leaves segment sizing to the
	// compactor's 2× stack invariant. The split lets a bulk build or a
	// re-splitting compaction seal its segments in parallel; every query still
	// runs over the whole stack on its caller's goroutine. A loaded file's own
	// stack loads as saved and compaction reshapes it from there.
	Segments int
}

// apply validates the knobs and sets them on e, defaulting the memtable size.
func (opt RuntimeOptions) apply(e *Engine) error {
	if opt.Segments < 0 {
		return fmt.Errorf("negative segment count %d", opt.Segments)
	}
	e.memSize = opt.MemtableSize
	if e.memSize <= 0 {
		e.memSize = defaultMemtableSize
	}
	e.noCompact = opt.DisableCompaction
	e.segments = opt.Segments
	return nil
}

// Engine is the SD-Index. All read paths (TopK and friends, Len, Bytes,
// View) are lock-free: they load the current snapshot with a single atomic
// pointer load. Insert, Remove, and compaction serialize among themselves
// on internal mutexes and publish new snapshots; they never block readers.
type Engine struct {
	dims   int
	roles  []query.Role
	active []int // the non-Ignored dimensions, ascending: the tiling's keys

	// snap is the engine's current epoch. Queries, Len, and Bytes read it
	// with one atomic load; writers build a successor and Store it.
	snap atomic.Pointer[snapshot]

	// wrMu serializes snapshot publication (Insert, Remove, compactor
	// swaps). It is never taken on a read path.
	wrMu sync.Mutex

	// Compaction state — see compact.go.
	compactMu   sync.Mutex
	compacting  atomic.Bool
	compactions atomic.Uint64 // completed seal/fold/reclaim steps, for ops telemetry
	memSize     int
	noCompact   bool

	segments int // large sealed segments to keep (segCap); ≤ 1 = unbounded

	// sweptHook, when set, runs after every completed segment sweep: a test
	// seam (TestCancelMidSweep cancels a query between two sweeps with it),
	// nil otherwise.
	sweptHook func()
	// builtHook, when set, runs in every compaction step after the
	// replacement segments are built and before they are swapped in: a test
	// seam (TestRemoveDuringCompaction removes rows there), nil otherwise.
	builtHook func()

	// wal is the engine's write-ahead log, nil when durability is off —
	// see wal.go. Mutations append to it under wrMu and wait for the group
	// commit outside it. It is atomic because AttachWAL (promotion) sets it
	// while lock-free readers such as WALStats may be running.
	wal atomic.Pointer[walLog]

	ctxPool sync.Pool // *queryCtx — see hotpath.go
}

// New builds the SD-Index over the dataset, sealing it into the engine's
// first immutable segment. The dimensionality is len(cfg.Roles); every row
// must match it.
func New(data [][]float64, cfg Config) (*Engine, error) {
	ids := make([]int32, len(data))
	for i := range ids {
		ids[i] = int32(i)
	}
	return NewWithIDs(data, ids, cfg)
}

// NewWithIDs is New with caller-assigned global dataset IDs (strictly
// ascending). A cluster partition holding rows {3, 17, 40, …} of the logical
// dataset builds this way, so its results — and its ascending-ID tie-break —
// are in terms of the cluster's global ID space.
func NewWithIDs(data [][]float64, ids []int32, cfg Config) (*Engine, error) {
	dims := len(cfg.Roles)
	if len(ids) != len(data) {
		return nil, fmt.Errorf("core: %d ids for %d rows", len(ids), len(data))
	}
	for i, p := range data {
		if err := validRow(p, dims); err != nil {
			return nil, fmt.Errorf("core: point %d: %w", i, err)
		}
		if ids[i] < 0 || (i > 0 && ids[i] <= ids[i-1]) {
			return nil, fmt.Errorf("core: ids must be ascending and non-negative (id %d at row %d)", ids[i], i)
		}
	}
	for _, r := range cfg.Roles {
		switch r {
		case query.Repulsive, query.Attractive, query.Ignored:
		default:
			return nil, fmt.Errorf("core: unknown role %d", r)
		}
	}
	e := newEngine(append([]query.Role(nil), cfg.Roles...))
	if err := cfg.RuntimeOptions.apply(e); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sn := &snapshot{
		total:  0,
		live:   len(data),
		minVal: make([]float64, dims),
		maxVal: make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		sn.minVal[d], sn.maxVal[d] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range data {
		for d, c := range p {
			sn.minVal[d] = math.Min(sn.minVal[d], c)
			sn.maxVal[d] = math.Max(sn.maxVal[d], c)
		}
	}
	if n := len(ids); n > 0 {
		sn.total = int(ids[n-1]) + 1
		// One sealed segment unless Segments splits the initial build into
		// equal chunks (ascending-ID order, so the stack invariant holds by
		// construction). Columns are gathered dimension-major straight from
		// the caller's rows — the segment's primary layout.
		nchunks := max(1, min(e.segments, n))
		sn.segs = e.sealAll(nchunks, func(ci int) ([]float64, []int32) {
			lo, hi := ci*n/nchunks, (ci+1)*n/nchunks
			rows := hi - lo
			cols := make([]float64, rows*dims)
			for d := 0; d < dims; d++ {
				c := cols[d*rows : (d+1)*rows]
				for i := range c {
					c[i] = data[lo+i][d]
				}
			}
			return cols, ids[lo:hi:hi]
		})
		sn.tombs = make([][]uint64, len(sn.segs))
	}
	e.snap.Store(sn)
	e.initCtxPool()
	if cfg.WAL != nil {
		// A fresh WAL directory gets its initial checkpoint before the first
		// mutation is accepted, so the directory invariantly recovers.
		if err := e.attachWAL(*cfg.WAL, 1); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newEngine is an engine over roles with its derived fields set: what New
// and Load share before the rows arrive.
func newEngine(roles []query.Role) *Engine {
	e := &Engine{dims: len(roles), roles: roles}
	for d, r := range roles {
		if r != query.Ignored {
			e.active = append(e.active, d)
		}
	}
	return e
}

// floatSlack, times a query's weighted coordinate reach, is the zone
// sweep's margin on a block bound (plan.go): 64 ulps per unit of term
// magnitude, far above the rounding of a d-term sum while staying many
// orders of magnitude below real score gaps.
const floatSlack = 64 * 0x1p-52

// reach returns an upper bound on |p_d − q_d| over every indexed row —
// the magnitude that scales dimension d's score terms.
func (sn *snapshot) reach(d int, qv float64) float64 {
	if sn.minVal[d] > sn.maxVal[d] { // no rows indexed yet
		return 0
	}
	return math.Max(math.Abs(sn.minVal[d]-qv), math.Abs(sn.maxVal[d]-qv))
}

// Roles returns the build-time dimension roles.
func (e *Engine) Roles() []query.Role { return append([]query.Role(nil), e.roles...) }

// Len returns the number of live points.
func (e *Engine) Len() int { return e.snap.Load().live }

// Epoch returns the version number of the engine's current snapshot: 0 at
// construction (and after Load), bumped by every Insert, Remove, and
// compaction swap. Because epochs are assigned under the writer lock and
// strictly increase, two Epoch calls returning the same value prove no
// snapshot was published between them — which makes the epoch a free cache
// invalidation key: any answer computed while the epoch held steady is
// exactly the answer a fresh query at that epoch would compute.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Segments reports the number of sealed segments in the current snapshot
// and the number of memtable rows — the observable shape of the storage
// stack, which compaction continuously reorganizes.
func (e *Engine) Segments() (segments, memRows int) {
	sn := e.snap.Load()
	return len(sn.segs), sn.memRows()
}

// Compactions reports how many compaction steps (memtable seals, stack
// folds, dead-row reclaims — background or explicit) the engine has
// completed since construction. A monotonic counter for the serving layer's
// metrics surface; it never resets.
func (e *Engine) Compactions() uint64 { return e.compactions.Load() }

// Bytes estimates the resident size of the engine: every sealed segment's
// column block, global-ID map and its inverse, block boxes, and tombstone
// bitset, plus the memtable arrays and the per-dimension extrema —
// everything the engine itself retains beyond the caller's dataset, so
// capacity planning numbers are honest.
func (e *Engine) Bytes() int { return e.snap.Load().bytes() }

// Stats reports the work one query performed.
type Stats struct {
	// Segments counts the sealed segments the query planned across.
	Segments int
	// Scored counts distinct points whose exact score the query computed.
	// Memtable rows are always scored; a sealed segment's sweep scores only
	// the live rows of the blocks it did not skip.
	Scored int
	// Swept counts the live rows of the sealed segments the query swept —
	// every live row of each, scored or skipped with its block — and
	// SweptSegments how many segments that was: every one the query
	// finished. Scored and BlocksSkipped say how much of Swept was scored.
	Swept         int
	SweptSegments int
	// BlocksBounded counts the blocks of swept segments whose box bound the
	// zone sweep computed (sweep.go), and BlocksSkipped those of them it never
	// scored because their bound fell below the prune line. A segment of one
	// block, and the memtable, are swept flat and count in neither.
	BlocksBounded int
	BlocksSkipped int
}

// TopK answers the SD-Query. spec.Roles must match the build-time roles,
// except that active dimensions may be demoted to Ignored (equivalent to a
// zero weight).
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	res, _, err := e.TopKWithStats(spec)
	return res, err
}

// TopKWithStats is TopK plus per-query work counters. Callers that reuse a
// result buffer should prefer TopKAppend (hotpath.go), which this wraps.
func (e *Engine) TopKWithStats(spec query.Spec) ([]query.Result, Stats, error) {
	res, stats, err := e.TopKAppend(nil, spec)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
