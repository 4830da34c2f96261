package core

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dimlist"
	"repro/internal/query"
	"repro/internal/topk"
)

// layout is the engine's fixed subproblem structure, decided once at New from
// the build-time roles (or read from a file by Load) and shared by every
// sealed segment: the pairs of Eqn. 10's bijection f, each answered by a 2D
// tree, and the lone dimensions f leaves out, each answered by a sorted list.
// Fixing the layout at the engine level — rather than re-deriving it per
// segment — is what lets a query derive its plan once for the whole segment
// stack: a plan's pair and lone indices name the same dimensions in every
// segment's trees and lists.
type layout struct {
	pairs []Pair
	lone  []int
}

// active lists the dimensions the layout covers, ascending: the tiling's key
// dimensions (tile.go).
func (lo *layout) active() []int {
	var dims []int
	for _, pr := range lo.pairs {
		dims = append(dims, pr.Rep, pr.Attr)
	}
	dims = append(dims, lo.lone...)
	sort.Ints(dims)
	return dims
}

// segment is one sealed, immutable layer of the engine: a dimension-major
// column block, the global dataset IDs of its rows, and the per-layout index
// structures built once over the segment's rows. Columns — not rows — are
// the primary layout: the batch score kernels (internal/simd) sweep one
// dimension's contiguous values for a whole candidate batch, so the hot loop
// streams cache lines instead of striding through row-major padding.
//
// The rows are held in tiled order (tile.go): STR-ordered into blockRows-row
// blocks, each with a min/max box, which is what lets a sweep skip whole
// blocks (sweep.go). byID maps back to ID order — the order the file stores
// (persist.go, format v3), compaction gathers in, and the trees and lists
// number their points in: a stream's emission r is the r-th smallest ID,
// local row byID[r]. Sealed segments are never mutated — removals tombstone
// rows (by local row) in the owning snapshot, and compaction replaces whole
// segments — so queries walk them without any synchronization.
type segment struct {
	ids   []int32   // local row → global dataset ID, in tiled order
	byID  []int32   // ID rank → local row: byID[r] holds the r-th smallest ID
	maxID int32     // the largest global ID in the segment
	cols  []float64 // dims × rows, dimension-major, tiled: column d = cols[d*rows:(d+1)*rows]
	rows  int
	boxes []float64 // block b's minima then maxima, dims each, at boxes[2*b*dims:]

	// indexed is false on a segment too small to ever be streamed (see
	// Engine.seal): it carries no trees or lists, and every query sweeps it.
	indexed bool
	trees   []*topk.Index   // parallel to layout.pairs
	lists   []*dimlist.List // parallel to layout.lone

	// structBytes caches the resident size of the index structures (trees,
	// lists); they never change after the build, so Bytes() does not re-walk
	// them.
	structBytes int
}

// copyRow gathers row local of a dimension-major column block (column d at
// cols[d*stride:]) into dst, one value per dimension — the random-access
// path for callers that need a whole row (Engine.Row, Merge, Save); the
// query path never materializes rows.
func copyRow(cols []float64, stride, local int, dst []float64) {
	for d := range dst {
		dst[d] = cols[d*stride+local]
	}
}

// seal builds one sealed segment under the engine's layout. A segment that
// costs no more to sweep than a single stream costs to probe is swept by
// every query whatever its plan (sweepsFirst), so it is sealed without
// index structures.
func (e *Engine) seal(cols []float64, ids []int32) (*segment, error) {
	return buildSegment(cols, ids, &e.layout, e.treeCfg, len(ids) > e.probeCost(1))
}

// sealAll seals n segments, segment i from the columns and IDs input(i)
// returns, on up to GOMAXPROCS goroutines: buildSegment is a pure function of
// its inputs, so a split bulk build, a multi-segment load, and a compaction
// that re-splits its output all build their segments side by side. input runs
// on the sealing goroutine, so the gather it does is spread out too. The
// first failing segment's error (lowest index) is returned.
func (e *Engine) sealAll(n int, input func(i int) (cols []float64, ids []int32)) ([]*segment, error) {
	segs := make([]*segment, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			segs[i], errs[i] = e.seal(input(i))
		}
	}
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is the first sealer: one segment spawns nothing
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// segCap is the row cap Config.Segments puts on a compaction output at a
// given live-row count: ⌈live/segments⌉, or 0 — unbounded — when the engine
// keeps no split.
func (e *Engine) segCap(live int) int {
	if e.segments <= 1 {
		return 0
	}
	return (live + e.segments - 1) / e.segments
}

// buildSegment seals rows (cols, dimension-major, with their global IDs,
// both in ID order) into an immutable segment under the engine's layout and
// tree configuration. IDs must be strictly ascending; indexed false leaves
// the trees and lists unbuilt. The segment tiles its own copy of the rows,
// so cols is only read. An empty row set returns nil.
func buildSegment(cols []float64, ids []int32, lo *layout, treeCfg topk.Config, indexed bool) (*segment, error) {
	rows := len(ids)
	if rows == 0 {
		return nil, nil
	}
	s := &segment{rows: rows, maxID: ids[rows-1], indexed: indexed}
	if !indexed {
		s.tile(cols, ids, lo.active())
		return s, nil
	}
	// Tiling reads the ID-order columns the trees and lists are built from,
	// and writes only fields they do not touch, so the two run side by side.
	tiled := make(chan struct{})
	go func() {
		defer close(tiled)
		s.tile(cols, ids, lo.active())
	}()
	defer func() { <-tiled }()
	col := func(d int) []float64 { return cols[d*rows : (d+1)*rows] }
	// Trees and lists copy their input columns and number their points by
	// position, so built from the ID-order columns they emit ID ranks.
	s.trees = make([]*topk.Index, len(lo.pairs))
	for i, pr := range lo.pairs {
		tree, err := topk.BuildColumns(col(pr.Attr), col(pr.Rep), treeCfg)
		if err != nil {
			return nil, fmt.Errorf("core: pair (%d, %d): %w", pr.Rep, pr.Attr, err)
		}
		s.trees[i] = tree
		s.structBytes += tree.Bytes()
	}
	s.lists = make([]*dimlist.List, len(lo.lone))
	for i, d := range lo.lone {
		s.lists[i] = dimlist.FromColumn(col(d))
		s.structBytes += s.lists[i].Len() * 12 // 8B value + 4B id per entry
	}
	return s, nil
}

// bytes is the segment's resident size: index structures plus the column
// block, the global-ID map and its inverse, the block boxes, and
// (caller-supplied) tombstone words.
func (s *segment) bytes(tombWords int) int {
	return s.structBytes + 8*len(s.cols) + 4*len(s.ids) + 4*len(s.byID) + 8*len(s.boxes) + 8*tombWords
}

// findLocal locates a global ID in the segment by binary search over the
// IDs in ascending order (through byID), returning its local row, or -1
// when absent.
func (s *segment) findLocal(id int32) int {
	lo, hi := 0, s.rows
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[s.byID[mid]] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.rows && s.ids[s.byID[lo]] == id {
		return int(s.byID[lo])
	}
	return -1
}

// bitset helpers shared by segment tombstones and memtable dead sets. A nil
// bitset reads as all-alive; setBit copies on write (the COW discipline every
// published snapshot relies on), growing to cover the index.
func bitGet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

// bitSetCopy returns a copy of bits with bit i set, grown as needed. The
// input is never modified — snapshots holding it stay valid.
func bitSetCopy(bits []uint64, i int) []uint64 {
	need := i>>6 + 1
	out := make([]uint64, max(need, len(bits)))
	copy(out, bits)
	out[i>>6] |= 1 << (uint(i) & 63)
	return out
}

// popcount counts set bits — the tombstone density the compactor's
// dead-heavy rewrite policy consults.
func popcount(bits []uint64) int {
	n := 0
	for _, w := range bits {
		n += mathbits.OnesCount64(w)
	}
	return n
}

// makeLayout fixes the engine's subproblem structure from the build-time
// roles: the in-order pairs plus a lone list per leftover dimension.
func makeLayout(roles []query.Role) layout {
	var repulsive, attractive []int
	for d, r := range roles {
		switch r {
		case query.Repulsive:
			repulsive = append(repulsive, d)
		case query.Attractive:
			attractive = append(attractive, d)
		}
	}
	return pairLayout(makePairs(repulsive, attractive), repulsive, attractive)
}

// pairLayout completes a pair list into a layout: every dimension of
// repulsive or attractive that no pair names becomes a lone dimension, in
// ascending order.
func pairLayout(pairs []Pair, repulsive, attractive []int) layout {
	lo := layout{pairs: pairs}
	paired := make(map[int]bool)
	for _, pr := range lo.pairs {
		paired[pr.Rep] = true
		paired[pr.Attr] = true
	}
	for _, d := range append(append([]int(nil), repulsive...), attractive...) {
		if !paired[d] {
			lo.lone = append(lo.lone, d)
		}
	}
	sort.Ints(lo.lone)
	return lo
}

// validRow rejects dimension mismatches and coordinates outside the shared
// value domain (query.CheckRow) — the invariant every indexed row satisfies.
func validRow(p []float64, dims int) error {
	if err := query.CheckRow(p, dims); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
