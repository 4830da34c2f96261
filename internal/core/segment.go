package core

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// segment is one sealed, immutable layer of the engine: a dimension-major
// column block, the global dataset IDs of its rows, and the block boxes of
// its tiling, built once over the segment's rows. Columns — not rows — are
// the primary layout: the batch score kernels (internal/simd) sweep one
// dimension's contiguous values for a whole candidate batch, so the hot loop
// streams cache lines instead of striding through row-major padding.
//
// The rows are held in tiled order (tile.go): STR-ordered into blockRows-row
// blocks, each with a min/max box, which is what lets a sweep skip whole
// blocks (sweep.go). byID maps back to ID order — the order the file stores
// (persist.go, format v3) and compaction gathers in: the r-th smallest ID is
// at local row byID[r]. Sealed segments are never mutated — removals tombstone
// rows (by local row) in the owning snapshot, and compaction replaces whole
// segments — so queries walk them without any synchronization.
type segment struct {
	ids   []int32   // local row → global dataset ID, in tiled order
	byID  []int32   // ID rank → local row: byID[r] holds the r-th smallest ID
	maxID int32     // the largest global ID in the segment
	cols  []float64 // dims × rows, dimension-major, tiled: column d = cols[d*rows:(d+1)*rows]
	rows  int
	boxes []float64 // every block's minima, then maxima, dimension-major: block b's in dimension d at [d*nb+b], [(dims+d)*nb+b]
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

// sealAll seals n segments, segment i from the columns and IDs input(i)
// returns, tiled on the engine's active dimensions, on up to GOMAXPROCS
// goroutines: buildSegment is a pure function of its inputs, so a split bulk
// build, a multi-segment load, and a compaction that re-splits its output all
// build their segments side by side. input runs on the sealing goroutine, so
// the gather it does is spread out too.
func (e *Engine) sealAll(n int, input func(i int) (cols []float64, ids []int32)) []*segment {
	segs := make([]*segment, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			cols, ids := input(i)
			segs[i] = buildSegment(cols, ids, e.active)
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
	return segs
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
// both in ID order) into an immutable segment tiled on keyDims (tile.go).
// IDs must be strictly ascending. The segment tiles its own copy of the rows,
// so cols is only read. An empty row set returns nil.
func buildSegment(cols []float64, ids []int32, keyDims []int) *segment {
	rows := len(ids)
	if rows == 0 {
		return nil
	}
	s := &segment{rows: rows, maxID: ids[rows-1]}
	s.tile(cols, ids, keyDims)
	return s
}

// bytes is the segment's resident size: the column block, the global-ID
// map and its inverse, the block boxes, and (caller-supplied) tombstone
// words.
func (s *segment) bytes(tombWords int) int {
	return 8*len(s.cols) + 4*len(s.ids) + 4*len(s.byID) + 8*len(s.boxes) + 8*tombWords
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

// popcountRange counts the set bits of [lo, hi) in bits, a word at a time:
// the tombstoned rows of a block. A bitset holds no bit past its last word,
// so a trimmed or nil one counts 0 there.
func popcountRange(bits []uint64, lo, hi int) int {
	hi = min(hi, 64*len(bits))
	n := 0
	for lo < hi {
		end := min(hi, lo&^63+64) // the end of lo's word, or hi
		w := bits[lo>>6] >> (uint(lo) & 63)
		n += mathbits.OnesCount64(w << (64 - uint(end-lo))) // its low end−lo bits
		lo = end
	}
	return n
}

// validRow rejects dimension mismatches and coordinates outside the shared
// value domain (query.CheckRow) — the invariant every indexed row satisfies.
func validRow(p []float64, dims int) error {
	if err := query.CheckRow(p, dims); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
