// Package core implements the paper's §5 multi-dimensional SD-Query engine —
// the SD-Index proper. The query's repulsive dimensions D and attractive
// dimensions S are paired into min(|D|, |S|) two-dimensional subproblems
// (Eqn. 10), each answered incrementally by a §4 top-k tree; leftover
// dimensions become 1D subproblems over sorted lists with bidirectional
// frontiers. A Threshold-Algorithm aggregation fetches from the subproblem
// whose frontier bound falls fastest (scheduler.go), scores fetched points
// exactly by random access, and stops once the k-th best exact score reaches
// the sum of the per-subproblem frontier bounds.
//
// Storage architecture: the engine is an epoch-versioned stack of immutable
// sealed segments — column data, per-pair trees, sorted lists, built once and
// never mutated — plus a small mutable memtable absorbing recent Inserts.
// Queries acquire a copy-on-write snapshot with one atomic load and hold no
// lock at all: every sealed segment contributes its subproblem streams to
// the §5 aggregation (tombstones mask removed rows at emission), and the
// memtable's few rows are scored exactly up front. A background compactor
// seals the memtable into a segment past a size threshold and folds small
// segments together, amortizing tree builds off both the query and the
// insert path. Sealed segments serialize to a versioned binary format
// (Save / Load), so a persisted index restarts without rebuilding.
//
// The granularity of the subproblems — two dimensions instead of TA's one —
// is the source of the paper's reported speedups and dimension scalability.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/topk"
)

// ErrCanceled is returned by the cancellation-aware query paths
// (TopKAppendCancel) when the caller's done channel closes before the
// aggregation terminates. The public API wrappers translate it into the
// originating context's error.
var ErrCanceled = errors.New("core: query canceled")

// defaultMemtableSize is the memtable row count past which the background
// compactor seals it into a segment. Small enough that the per-query exact
// scan of the memtable stays a rounding error next to the indexed
// subproblems, large enough that tree builds amortize over many inserts.
const defaultMemtableSize = 1024

// Pair is one 2D subproblem: the repulsive dimension is the tree's y axis,
// the attractive one its x axis.
type Pair struct {
	Rep, Attr int
}

// Config controls engine construction. The subproblem layout is not
// configurable: the repulsive and attractive dimensions of Roles are zipped
// in index order into pairs (makePairs), and the longer list's leftovers are
// solved alone.
type Config struct {
	// Roles fixes each dimension's role at build time (the evaluation's
	// setting; the per-pair trees depend on it). Queries may demote an
	// active dimension to Ignored but may not flip roles.
	Roles []query.Role
	// Tree configures the per-pair §4 indexes.
	Tree topk.Config
	// WAL, when non-nil, makes every mutation durable: Insert and Remove
	// append checksummed records to a per-engine log before publishing, and
	// Open replays the tail over the last checkpoint after a crash. See
	// wal.go.
	WAL *WALConfig
	RuntimeOptions
}

// RuntimeOptions are the engine knobs that change neither the answers nor the
// persisted file. Config embeds them; Load and Open take them fresh, while
// the structural configuration — roles, pairing layout, tree shape — comes
// from the file. apply is the one place they reach an Engine.
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
	// AccessCost overrides the sweep-or-stream planner's one unit cost — the
	// price of a sorted access in swept rows (DefaultAccessCost). No public
	// option sets it: 0, what every user-facing constructor passes, selects
	// the measured constant. StreamOnly pins pure streaming — no segment a
	// query can stream is swept and every seal builds its index — for the
	// paper-figure engines of internal/bench and the stream halves of the
	// differential suites, whose datasets are all small enough that the
	// planner would sweep them and leave the streams without coverage. A
	// positive value is for tests that need bail-outs on tiny data.
	AccessCost int
}

// apply validates the knobs and sets them on e, defaulting the memtable size
// and resolving the access cost.
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
	e.accessCost = resolveAccessCost(opt.AccessCost)
	return nil
}

// Engine is the SD-Index. All read paths (TopK and friends, Len, Bytes,
// View) are lock-free: they load the current snapshot with a single atomic
// pointer load. Insert, Remove, and compaction serialize among themselves
// on internal mutexes and publish new snapshots; they never block readers.
type Engine struct {
	dims    int
	roles   []query.Role
	layout  layout
	treeCfg topk.Config

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

	segments   int // large sealed segments to keep (segCap); ≤ 1 = unbounded
	accessCost int // a sorted access in swept rows; 0 = never sweep (scheduler.go)

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
	// The engine defaults its per-pair trees to packed leaves: the tree
	// semantics are identical (the paper's §4 disk-style layout), and the
	// 64-point leaves — the widest the leaf-cursor bitmask supports — cut
	// both heap traffic on the query path and node overhead by an order
	// of magnitude. Callers can force single-point leaves (the paper's
	// in-memory layout) through Config.Tree.LeafCap.
	if cfg.Tree.LeafCap == 0 {
		cfg.Tree.LeafCap = 64
	}
	e := &Engine{
		dims:    dims,
		roles:   append([]query.Role(nil), cfg.Roles...),
		layout:  makeLayout(cfg.Roles),
		treeCfg: cfg.Tree,
	}
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
		segs, err := e.sealAll(nchunks, func(ci int) ([]float64, []int32) {
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
		if err != nil {
			return nil, err
		}
		sn.segs = segs
		sn.tombs = make([][]uint64, len(segs))
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

// makePairs zips repulsive and attractive dimensions in index order — the
// paper's "arbitrary" bijection f of Eqn. 10, |pairs| = min(|D|, |S|).
func makePairs(repulsive, attractive []int) []Pair {
	pairs := make([]Pair, min(len(repulsive), len(attractive)))
	for i := range pairs {
		pairs[i] = Pair{Rep: repulsive[i], Attr: attractive[i]}
	}
	return pairs
}

// floatSlack, times a query's weighted coordinate reach, bounds the drift
// between the pair trees' projection-space score arithmetic (normalize,
// blend, rescale: a handful of roundings per term) and the exact
// contribution. 64 ulps per unit of term magnitude is far above anything
// the ~10-operation chain can accumulate while staying many orders of
// magnitude below real score gaps.
const floatSlack = 64 * 0x1p-52

// reach returns an upper bound on |p_d − q_d| over every indexed row —
// the magnitude that scales dimension d's score terms.
func (sn *snapshot) reach(d int, qv float64) float64 {
	if sn.minVal[d] > sn.maxVal[d] { // no rows indexed yet
		return 0
	}
	return math.Max(math.Abs(sn.minVal[d]-qv), math.Abs(sn.maxVal[d]-qv))
}

// Pairs returns the chosen dimension pairing (for inspection and tests): the
// bijection f of Eqn. 10, fixed at build time. Dimensions it leaves out are
// solved alone over sorted lists.
func (e *Engine) Pairs() []Pair { return append([]Pair(nil), e.layout.pairs...) }

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
// index structures, column block, global-ID map, and tombstone bitset,
// plus the memtable arrays and the per-dimension extrema — everything the
// engine itself retains beyond the caller's dataset, so capacity planning
// numbers are honest.
func (e *Engine) Bytes() int { return e.snap.Load().bytes() }

// Stats reports the work one query performed — the quantities the paper's
// analysis argues about (fetches per subproblem versus a full scan).
type Stats struct {
	// Subproblems actually consulted (zero-weight ones are skipped),
	// summed across every sealed segment.
	Subproblems int
	// Segments counts the sealed segments the query planned across.
	Segments int
	// Fetched counts sorted-access emissions across all subproblems.
	Fetched int
	// Scored counts distinct points whose exact score the query computed: by
	// random access after a sorted access surfaced them, or by a sweep.
	// Memtable rows are always scored; a sealed segment's sweep scores only
	// the live rows of the blocks it did not skip.
	Scored int
	// Swept counts the live rows sweeps of sealed segments settled instead
	// of their streams — scored, or skipped with their block — and
	// SweptSegments the number of segments the planner finished that way, up
	// front or by retiring their streams mid-query (scheduler.go). Swept is
	// the planner's unit: it reads the same whether a sweep skipped blocks or
	// not. Both are 0 on a pure-stream engine.
	Swept         int
	SweptSegments int
	// BlocksBounded counts the blocks of swept segments whose box bound the
	// zone sweep computed (sweep.go), and BlocksSkipped those of them it never
	// scored because their bound fell below the prune line. A segment of one
	// block, and the memtable, are swept flat and count in neither.
	BlocksBounded int
	BlocksSkipped int
	// Rounds counts scheduler steps: one adaptive batch dispatched to one
	// subproblem.
	Rounds int
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
