// Package rstar is a from-scratch in-memory R*-tree (Beckmann et al., with
// ChooseSubtree by overlap enlargement, margin-driven split-axis selection,
// and forced reinsertion), built as the substrate for the BRS baseline
// [Tao et al., Information Systems 2007] used in the paper's evaluation.
//
// The tree stores points (degenerate rectangles); the BRS engine runs
// branch-and-bound best-first search over the minimum bounding rectangles
// via BestFirst.
package rstar

import (
	"fmt"
	"math"
	"sort"
)

const defaultMax = 16

// Tree is an R*-tree over points of fixed dimensionality. Not safe for
// concurrent mutation; concurrent reads are fine.
type Tree struct {
	dims      int
	max, min  int
	root      *node
	size      int
	reinserts map[int]bool // levels that already reinserted during the current insert
}

type node struct {
	level   int // 0 = leaf
	entries []entry
}

// entry is either a point (child == nil, lo aliases hi) or a subtree with
// its MBR.
type entry struct {
	lo, hi []float64
	child  *node
	id     int32
}

// New creates a tree for points with dims coordinates and the given maximum
// node capacity (the paper tunes this per dimensionality: 28, 16, 12, 9 for
// d = 2, 4, 6, 8). maxEntries < 4 is raised to 4.
func New(dims, maxEntries int) *Tree {
	if dims < 1 {
		panic(fmt.Sprintf("rstar: dims %d < 1", dims))
	}
	if maxEntries < 4 {
		maxEntries = defaultMax
	}
	minEntries := maxEntries * 2 / 5 // the R* 40% fill guarantee
	if minEntries < 2 {
		minEntries = 2
	}
	return &Tree{
		dims: dims,
		max:  maxEntries,
		min:  minEntries,
		root: &node{level: 0},
	}
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.size }

// Dims returns the point dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Insert adds a point with an identifier. The point slice is retained (not
// copied); callers must not mutate it afterwards.
func (t *Tree) Insert(pt []float64, id int32) error {
	if len(pt) != t.dims {
		return fmt.Errorf("rstar: point has %d dims, tree has %d", len(pt), t.dims)
	}
	for _, c := range pt {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("rstar: non-finite coordinate %v", c)
		}
	}
	t.reinserts = make(map[int]bool)
	t.insert(entry{lo: pt, hi: pt, id: id}, 0)
	t.size++
	return nil
}

// insert places e at the target level, handling overflow via forced
// reinsertion or split.
func (t *Tree) insert(e entry, level int) {
	nd, path := t.chooseSubtree(e, level)
	nd.entries = append(nd.entries, e)
	t.adjustPath(path)
	if len(nd.entries) > t.max {
		t.overflow(nd, path)
	}
}

// chooseSubtree descends to the node at the target level best suited for e,
// returning it and the path of (parent node, entry index) pairs above it.
func (t *Tree) chooseSubtree(e entry, level int) (*node, []pathStep) {
	nd := t.root
	var path []pathStep
	for nd.level > level {
		var best int
		if nd.level == 1 {
			best = chooseByOverlap(nd.entries, e)
		} else {
			best = chooseByArea(nd.entries, e)
		}
		path = append(path, pathStep{nd, best})
		nd = nd.entries[best].child
	}
	return nd, path
}

type pathStep struct {
	nd *node
	ei int
}

// chooseByOverlap implements the R* leaf-level rule: minimum overlap
// enlargement, ties broken by area enlargement, then by area. Areas are
// products over every dimension and can overflow to +Inf (their differences
// to NaN) on wide coordinates, so the first candidate is taken until a
// comparison prefers another: the choice only shapes the tree, never what it
// holds. chooseByArea and split's distribution rule do the same.
func chooseByOverlap(entries []entry, e entry) int {
	best, bestOverlap, bestAreaEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range entries {
		enlarged := combineRect(entries[i], e)
		var overlap float64
		for j := range entries {
			if j == i {
				continue
			}
			overlap += intersectionArea(enlarged.lo, enlarged.hi, entries[j].lo, entries[j].hi) -
				intersectionArea(entries[i].lo, entries[i].hi, entries[j].lo, entries[j].hi)
		}
		area := rectArea(entries[i].lo, entries[i].hi)
		areaEnl := rectArea(enlarged.lo, enlarged.hi) - area
		if best < 0 || overlap < bestOverlap ||
			(overlap == bestOverlap && areaEnl < bestAreaEnl) ||
			(overlap == bestOverlap && areaEnl == bestAreaEnl && area < bestArea) {
			best, bestOverlap, bestAreaEnl, bestArea = i, overlap, areaEnl, area
		}
	}
	return best
}

// chooseByArea implements the internal-level rule: minimum area enlargement,
// ties broken by area.
func chooseByArea(entries []entry, e entry) int {
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i := range entries {
		area := rectArea(entries[i].lo, entries[i].hi)
		enlarged := combineRect(entries[i], e)
		enl := rectArea(enlarged.lo, enlarged.hi) - area
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overflow applies R* overflow treatment: forced reinsertion once per level
// per insertion, otherwise split — propagating splits upward.
func (t *Tree) overflow(nd *node, path []pathStep) {
	for {
		if len(path) > 0 && !t.reinserts[nd.level] {
			t.reinserts[nd.level] = true
			t.reinsert(nd, path)
			return
		}
		left, right := t.split(nd)
		if len(path) == 0 {
			t.root = &node{level: nd.level + 1, entries: []entry{
				mbrEntry(left), mbrEntry(right),
			}}
			return
		}
		parent := path[len(path)-1]
		parent.nd.entries[parent.ei] = mbrEntry(left)
		parent.nd.entries = append(parent.nd.entries, mbrEntry(right))
		t.adjustPath(path[:len(path)-1])
		if len(parent.nd.entries) <= t.max {
			return
		}
		nd, path = parent.nd, path[:len(path)-1]
	}
}

// reinsert removes the 30% of entries farthest from the node's MBR center
// and re-inserts them top-down (the R* "forced reinsert").
func (t *Tree) reinsert(nd *node, path []pathStep) {
	lo, hi := nodeMBR(nd)
	center := make([]float64, t.dims)
	for d := 0; d < t.dims; d++ {
		center[d] = (lo[d] + hi[d]) / 2
	}
	type distEntry struct {
		dist float64
		e    entry
	}
	des := make([]distEntry, len(nd.entries))
	for i, e := range nd.entries {
		var dist float64
		for d := 0; d < t.dims; d++ {
			c := (e.lo[d] + e.hi[d]) / 2
			dist += (c - center[d]) * (c - center[d])
		}
		des[i] = distEntry{dist, e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].dist > des[j].dist })
	p := len(des) * 3 / 10
	if p < 1 {
		p = 1
	}
	removed := make([]entry, p)
	for i := 0; i < p; i++ {
		removed[i] = des[i].e
	}
	nd.entries = nd.entries[:0]
	for _, de := range des[p:] {
		nd.entries = append(nd.entries, de.e)
	}
	t.adjustPath(path)
	for _, e := range removed {
		t.insert(e, nd.level)
	}
}

// split implements the R* topological split: choose the axis minimizing the
// total margin over all distributions, then the distribution minimizing
// overlap (ties: minimizing total area).
func (t *Tree) split(nd *node) (*node, *node) {
	entries := nd.entries
	bestAxis, bestMargin := -1, math.Inf(1)
	for d := 0; d < t.dims; d++ {
		sortByAxis(entries, d)
		if m := marginSum(entries, t.min, t.max); m < bestMargin {
			bestAxis, bestMargin = d, m
		}
	}
	sortByAxis(entries, bestAxis)
	bestSplit, bestOverlap, bestArea := -1, math.Inf(1), math.Inf(1)
	for k := t.min; k <= len(entries)-t.min; k++ {
		lo1, hi1 := groupMBR(entries[:k])
		lo2, hi2 := groupMBR(entries[k:])
		overlap := intersectionArea(lo1, hi1, lo2, hi2)
		area := rectArea(lo1, hi1) + rectArea(lo2, hi2)
		if bestSplit < 0 || overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestSplit, bestOverlap, bestArea = k, overlap, area
		}
	}
	left := &node{level: nd.level, entries: append([]entry(nil), entries[:bestSplit]...)}
	right := &node{level: nd.level, entries: append([]entry(nil), entries[bestSplit:]...)}
	return left, right
}

func sortByAxis(entries []entry, d int) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].lo[d] != entries[j].lo[d] {
			return entries[i].lo[d] < entries[j].lo[d]
		}
		return entries[i].hi[d] < entries[j].hi[d]
	})
}

func marginSum(entries []entry, min, max int) float64 {
	var sum float64
	for k := min; k <= len(entries)-min; k++ {
		lo1, hi1 := groupMBR(entries[:k])
		lo2, hi2 := groupMBR(entries[k:])
		sum += rectMargin(lo1, hi1) + rectMargin(lo2, hi2)
	}
	return sum
}

// adjustPath tightens the MBRs stored along a root-to-node path, bottom-up.
func (t *Tree) adjustPath(path []pathStep) {
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		lo, hi := nodeMBR(step.nd.entries[step.ei].child)
		step.nd.entries[step.ei].lo = lo
		step.nd.entries[step.ei].hi = hi
	}
}

func mbrEntry(nd *node) entry {
	lo, hi := nodeMBR(nd)
	return entry{lo: lo, hi: hi, child: nd}
}

func nodeMBR(nd *node) ([]float64, []float64) {
	return groupMBR(nd.entries)
}

func groupMBR(entries []entry) ([]float64, []float64) {
	dims := len(entries[0].lo)
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	copy(lo, entries[0].lo)
	copy(hi, entries[0].hi)
	for _, e := range entries[1:] {
		for d := 0; d < dims; d++ {
			lo[d] = math.Min(lo[d], e.lo[d])
			hi[d] = math.Max(hi[d], e.hi[d])
		}
	}
	return lo, hi
}

func combineRect(a, b entry) entry {
	dims := len(a.lo)
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Min(a.lo[d], b.lo[d])
		hi[d] = math.Max(a.hi[d], b.hi[d])
	}
	return entry{lo: lo, hi: hi}
}

func rectArea(lo, hi []float64) float64 {
	area := 1.0
	for d := range lo {
		area *= hi[d] - lo[d]
	}
	return area
}

func rectMargin(lo, hi []float64) float64 {
	var m float64
	for d := range lo {
		m += hi[d] - lo[d]
	}
	return m
}

func intersectionArea(alo, ahi, blo, bhi []float64) float64 {
	area := 1.0
	for d := range alo {
		w := math.Min(ahi[d], bhi[d]) - math.Max(alo[d], blo[d])
		if w <= 0 {
			return 0
		}
		area *= w
	}
	return area
}

// Delete removes the point with the given coordinates and id, reporting
// whether it was found. Underflowing nodes are dissolved and their entries
// reinserted (the classic condense-tree).
func (t *Tree) Delete(pt []float64, id int32) bool {
	if len(pt) != t.dims {
		return false
	}
	leaf, path := t.findLeaf(t.root, nil, pt, id)
	if leaf == nil {
		return false
	}
	for i, e := range leaf.entries {
		if e.id == id && samePoint(e.lo, pt) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	t.size--
	t.condense(leaf, path)
	return true
}

func (t *Tree) findLeaf(nd *node, path []pathStep, pt []float64, id int32) (*node, []pathStep) {
	if nd.level == 0 {
		for _, e := range nd.entries {
			if e.id == id && samePoint(e.lo, pt) {
				return nd, path
			}
		}
		return nil, nil
	}
	for i, e := range nd.entries {
		if containsPoint(e.lo, e.hi, pt) {
			if leaf, p := t.findLeaf(e.child, append(path, pathStep{nd, i}), pt, id); leaf != nil {
				return leaf, p
			}
		}
	}
	return nil, nil
}

func (t *Tree) condense(nd *node, path []pathStep) {
	var orphans []struct {
		e     entry
		level int
	}
	for len(path) > 0 {
		parent := path[len(path)-1]
		if len(nd.entries) < t.min {
			for _, e := range nd.entries {
				orphans = append(orphans, struct {
					e     entry
					level int
				}{e, nd.level})
			}
			parent.nd.entries = append(parent.nd.entries[:parent.ei], parent.nd.entries[parent.ei+1:]...)
			// Entry indices recorded deeper in the path are now stale,
			// but only the remaining ancestors are touched below.
			t.adjustValid(path[:len(path)-1])
		} else {
			t.adjustPath(path)
		}
		nd, path = parent.nd, path[:len(path)-1]
	}
	if t.root.level > 0 && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if t.root.level > 0 && len(t.root.entries) == 0 {
		t.root = &node{level: 0}
	}
	for _, o := range orphans {
		t.reinserts = make(map[int]bool)
		if o.level > t.root.level {
			// The tree shrank below the orphan's level; re-add its points.
			t.reinsertSubtree(o.e)
			continue
		}
		t.insert(o.e, o.level)
	}
}

// adjustValid re-tightens MBRs along a path whose recorded entry indices are
// still valid (ancestors of a spliced node).
func (t *Tree) adjustValid(path []pathStep) {
	t.adjustPath(path)
}

func (t *Tree) reinsertSubtree(e entry) {
	if e.child == nil {
		t.insert(e, 0)
		return
	}
	for _, c := range e.child.entries {
		t.reinsertSubtree(c)
	}
}

func samePoint(a, b []float64) bool {
	for d := range a {
		if a[d] != b[d] {
			return false
		}
	}
	return true
}

func containsPoint(lo, hi, pt []float64) bool {
	for d := range pt {
		if pt[d] < lo[d] || pt[d] > hi[d] {
			return false
		}
	}
	return true
}

// SearchRange calls fn for every stored point inside [lo, hi] (inclusive),
// stopping early if fn returns false.
func (t *Tree) SearchRange(lo, hi []float64, fn func(pt []float64, id int32) bool) {
	var walk func(nd *node) bool
	walk = func(nd *node) bool {
		for _, e := range nd.entries {
			if !rectsOverlap(e.lo, e.hi, lo, hi) {
				continue
			}
			if e.child == nil {
				if containsPoint(lo, hi, e.lo) && !fn(e.lo, e.id) {
					return false
				}
				continue
			}
			if !walk(e.child) {
				return false
			}
		}
		return true
	}
	if t.size > 0 {
		walk(t.root)
	}
}

func rectsOverlap(alo, ahi, blo, bhi []float64) bool {
	for d := range alo {
		if alo[d] > bhi[d] || ahi[d] < blo[d] {
			return false
		}
	}
	return true
}
