// Package topk implements the paper's §4 index structure for top-k SD-queries
// with k and the weighting parameters supplied at query time.
//
// The index is a balanced b-ary tree over the x-values of the points (a 1D
// KD-tree in the paper's terms). Every non-leaf node stores, for each indexed
// projection angle, bounds on the four projection intercepts within its
// subtree:
//
//	maxU = max α·y − β·x   (highest llp — and lowest rup is minU)
//	maxV = max α·y + β·x   (highest rlp — and lowest lup is minV)
//
// Given a query axis x = x_q, the root-to-leaf "separating path" splits the
// tree into subtrees entirely left and entirely right of the axis. Left
// projections (llp, lup) of right-side points and right projections (rlp,
// rup) of left-side points intersect the axis; four best-first streams over
// the per-node bounds then enumerate each projection type in score order
// (Algorithms 2 and 3). Arbitrary query weights are answered by bracketing
// the query angle between two indexed angles (Claim 6, Algorithm 4).
//
// Departure from the paper's presentation: rather than destructively
// updating bounds along the separating path and undoing them after the
// query, each query materializes the path once into pure one-side subtree
// seeds and runs lazy best-first heaps over them. Visit order and
// asymptotics are identical, and a shared index serves concurrent queries.
package topk

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// DefaultAngles returns the paper's recommended five indexed angles,
// uniformly covering [0°, 90°]: 0, 23, 45, 67, 90 (§6.1).
func DefaultAngles() []geom.Angle {
	return anglesFromDegrees(0, 23, 45, 67, 90)
}

func anglesFromDegrees(degs ...float64) []geom.Angle {
	out := make([]geom.Angle, len(degs))
	for i, d := range degs {
		a, err := geom.AngleFromDegrees(d)
		if err != nil {
			panic(err)
		}
		out[i] = a
	}
	return out
}

// Config controls index construction.
type Config struct {
	// Branching is the tree fan-out b ≥ 2. Default 8.
	Branching int
	// LeafCap is the number of points a leaf may hold. 1 reproduces the
	// paper's in-memory layout; larger values give the §4 disk-style
	// bulk-loaded packing. Default 1.
	LeafCap int
	// Angles are the indexed projection angles. The set is sorted,
	// deduplicated, and extended with 0° and 90° if absent (the paper's
	// recommendation, and required for Claim 6 to bracket every query).
	// Default: DefaultAngles().
	Angles []geom.Angle
	// RebuildThreshold is θ of §4: when the fraction of leaves on
	// overlong paths exceeds it, the index is rebuilt. Default 0.25.
	RebuildThreshold float64
}

func (c Config) withDefaults() Config {
	if c.Branching == 0 {
		c.Branching = 8
	}
	if c.LeafCap == 0 {
		c.LeafCap = 1
	}
	if len(c.Angles) == 0 {
		c.Angles = DefaultAngles()
	}
	if c.RebuildThreshold == 0 {
		c.RebuildThreshold = 0.25
	}
	return c
}

// node is both internal node and leaf. For leaves lids != nil; for internal
// nodes children is non-empty and seps holds len(children)-1 separators:
// child i contains exactly the points with x in (seps[i-1], seps[i]].
//
// Leaf points are stored struct-of-arrays — parallel x, y, and id columns —
// so the query-time leaf scan can hand the coordinate columns straight to
// the simd.BlendKeys kernel, and the int32 ids cut leaf footprint versus an
// embedded []geom.Point.
type node struct {
	seps     []float64
	children []*node
	lxs      []float64
	lys      []float64
	lids     []int32
	// bounds holds 4 values per indexed angle:
	// [4a+0] maxU, [4a+1] minU, [4a+2] maxV, [4a+3] minV.
	bounds []float64
	depth  int
}

func (n *node) leaf() bool { return n.lids != nil }

func (n *node) npts() int { return len(n.lids) }

// point materializes leaf point i; used on the cold paths (rebuilds,
// updates, spills, run emission) — the hot scan reads the columns directly.
func (n *node) point(i int) geom.Point {
	return geom.Point{ID: int(n.lids[i]), X: n.lxs[i], Y: n.lys[i]}
}

// Index is the §4 top-k structure. It is safe for concurrent queries;
// updates require external synchronization.
type Index struct {
	cfg     Config
	angles  []geom.Angle
	degrees []float64
	root    *node
	size    int
	// rebalance bookkeeping (§4): leaves deeper than the as-built height.
	builtDepth int
	overlong   map[*node]bool
	// arena is non-nil only while a bulk load is in flight.
	arena *buildArena
}

// Build constructs the index. Points must have finite coordinates and IDs
// representable as int32 (they are caller-assigned and not checked for
// uniqueness). An empty point set is allowed.
func Build(points []geom.Point, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if cfg.Branching < 2 {
		return nil, fmt.Errorf("topk: branching factor %d < 2", cfg.Branching)
	}
	if cfg.LeafCap < 1 {
		return nil, fmt.Errorf("topk: leaf capacity %d < 1", cfg.LeafCap)
	}
	if cfg.RebuildThreshold < 0 || cfg.RebuildThreshold > 1 {
		return nil, fmt.Errorf("topk: rebuild threshold %v outside [0, 1]", cfg.RebuildThreshold)
	}
	for _, p := range points {
		if err := checkPoint(p); err != nil {
			return nil, err
		}
	}
	angles, degrees, err := normalizeAngles(cfg.Angles)
	if err != nil {
		return nil, err
	}
	cfg.Angles = angles
	idx := &Index{cfg: cfg, angles: angles, degrees: degrees, overlong: make(map[*node]bool)}
	idx.rebuild(points)
	return idx, nil
}

// BuildColumns builds the index over the implicit point set
// (ID=i, X=xs[i], Y=ys[i]) — the sealed-segment constructor: a segment's
// rows are identified by their local row index, so the caller hands over
// two extracted coordinate columns instead of materializing geom.Points.
func BuildColumns(xs, ys []float64, cfg Config) (*Index, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("topk: %d x values for %d y values", len(xs), len(ys))
	}
	pts := make([]geom.Point, len(xs))
	for i := range pts {
		pts[i] = geom.Point{ID: i, X: xs[i], Y: ys[i]}
	}
	return Build(pts, cfg)
}

func checkPoint(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("topk: point %d has non-finite coordinates (%v, %v)", p.ID, p.X, p.Y)
	}
	if p.ID < 0 || int64(p.ID) > math.MaxInt32 {
		return fmt.Errorf("topk: point ID %d outside int32 range", p.ID)
	}
	return nil
}

// normalizeAngles sorts, deduplicates, and completes the angle set so that
// it covers [0°, 90°].
func normalizeAngles(in []geom.Angle) ([]geom.Angle, []float64, error) {
	degs := make([]float64, 0, len(in)+2)
	for _, a := range in {
		d := a.Degrees()
		if math.IsNaN(d) || d < -1e-9 || d > 90+1e-9 {
			return nil, nil, fmt.Errorf("topk: indexed angle %v° outside [0, 90]", d)
		}
		degs = append(degs, d)
	}
	degs = append(degs, 0, 90)
	sort.Float64s(degs)
	outD := degs[:0]
	for _, d := range degs {
		if len(outD) == 0 || d-outD[len(outD)-1] > 1e-9 {
			outD = append(outD, d)
		}
	}
	out := make([]geom.Angle, len(outD))
	for i, d := range outD {
		a, err := geom.AngleFromDegrees(math.Min(math.Max(d, 0), 90))
		if err != nil {
			return nil, nil, err
		}
		out[i] = a
		outD[i] = a.Degrees()
	}
	return out, outD, nil
}

// buildArena carves node structs, bounds vectors, child arrays and leaf
// coordinate columns out of shared slabs during a build. The query hot path
// reads (child node header, child bounds) for every sibling of an expanded
// node, so siblings are placed adjacently: one cache line then serves several
// children instead of one pointer-chased heap object each. Every slab is
// sized exactly for the subtree being built (newArena counts its nodes
// first), so a built tree carries no slack, and never reallocated, so
// interior pointers stay valid; the tree keeps the slabs alive through those
// pointers and the arena itself is dropped when the build returns. Every
// carved slice is capacity-clamped, so an append on a leaf column
// reallocates instead of bleeding into a sibling's region.
type buildArena struct {
	nodes  []node
	bounds []float64
	kids   []*node
	xs     []float64
	ys     []float64
	ids    []int32
}

// newArena sizes an arena for the subtree fillNode builds over the sorted
// points: every point lands in exactly one leaf, every node has one bounds
// vector, and every node but the subtree's root is somebody's child.
func (idx *Index) newArena(pts []geom.Point) *buildArena {
	nodes := idx.countNodes(pts)
	return &buildArena{
		nodes:  make([]node, 0, nodes),
		bounds: make([]float64, 0, nodes*4*len(idx.angles)),
		kids:   make([]*node, 0, nodes-1),
		xs:     make([]float64, 0, len(pts)),
		ys:     make([]float64, 0, len(pts)),
		ids:    make([]int32, 0, len(pts)),
	}
}

// newNodes returns n adjacent zero node structs.
func (a *buildArena) newNodes(n int) []node {
	l := len(a.nodes)
	a.nodes = a.nodes[:l+n]
	return a.nodes[l : l+n : l+n]
}

// newBounds returns an n-float region; sequential calls within one parent
// yield adjacent regions.
func (a *buildArena) newBounds(n int) []float64 {
	l := len(a.bounds)
	a.bounds = a.bounds[:l+n]
	return a.bounds[l : l+n : l+n]
}

// newKids returns an n-pointer child array.
func (a *buildArena) newKids(n int) []*node {
	l := len(a.kids)
	a.kids = a.kids[:l+n]
	return a.kids[l : l+n : l+n]
}

// newCols carves an n-point leaf's coordinate and id columns; leaves come
// out packed in x order.
func (a *buildArena) newCols(n int) (xs, ys []float64, ids []int32) {
	lx, ly, li := len(a.xs), len(a.ys), len(a.ids)
	a.xs, a.ys, a.ids = a.xs[:lx+n], a.ys[:ly+n], a.ids[:li+n]
	return a.xs[lx : lx+n : lx+n], a.ys[ly : ly+n : ly+n], a.ids[li : li+n : li+n]
}

// rebuild reconstructs the tree from the given points (bulk load: sort by x,
// split bottom-up balanced, then fill bounds).
func (idx *Index) rebuild(points []geom.Point) {
	pts := append([]geom.Point(nil), points...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		if pts[i].Y != pts[j].Y {
			return pts[i].Y < pts[j].Y
		}
		return pts[i].ID < pts[j].ID
	})
	idx.size = len(pts)
	idx.overlong = make(map[*node]bool)
	if len(pts) == 0 {
		idx.root = nil
		idx.builtDepth = 0
		return
	}
	idx.arena = idx.newArena(pts)
	root := &idx.arena.newNodes(1)[0]
	idx.fillNode(root, pts, 0)
	idx.arena = nil
	idx.root = root
	idx.builtDepth = treeDepth(idx.root)
}

// splitCuts returns the boundaries at which fillNode splits a sorted slice
// into at most b children — child i is pts[cuts[i]:cuts[i+1]] — or nil when
// the slice becomes a leaf: it fits one, or all its points share one x (or
// ties defeated every cut) and it cannot be split. Runs of equal x never
// straddle a separator, so delete/insert routing by x is exact.
func (idx *Index) splitCuts(pts []geom.Point) []int {
	n := len(pts)
	if n <= idx.cfg.LeafCap {
		return nil
	}
	b := idx.cfg.Branching
	cuts := make([]int, 1, b+1)
	for i := 1; i < b; i++ {
		e := i * n / b
		if e <= cuts[len(cuts)-1] {
			continue
		}
		for e < n && pts[e].X == pts[e-1].X {
			e++
		}
		if e >= n {
			break
		}
		cuts = append(cuts, e)
	}
	if len(cuts) == 1 {
		return nil
	}
	return append(cuts, n)
}

// countNodes is the number of nodes fillNode builds over a sorted slice.
func (idx *Index) countNodes(pts []geom.Point) int {
	cuts := idx.splitCuts(pts)
	n := 1
	for i := 1; i < len(cuts); i++ {
		n += idx.countNodes(pts[cuts[i-1]:cuts[i]])
	}
	return n
}

// fillNode recursively splits a sorted slice into at most b children,
// building the subtree in place in nd. Child node structs and
// child bounds vectors are arena-allocated up front, before any recursion,
// so all siblings land adjacent in memory.
func (idx *Index) fillNode(nd *node, pts []geom.Point, depth int) {
	cuts := idx.splitCuts(pts)
	if cuts == nil {
		idx.fillLeaf(nd, pts, depth)
		return
	}
	nd.depth = depth
	nc := len(cuts) - 1
	bw := 4 * len(idx.angles)
	kids := idx.arena.newNodes(nc)
	kb := idx.arena.newBounds(nc * bw)
	nd.children = idx.arena.newKids(nc)
	for ci := 0; ci < nc; ci++ {
		chunk := pts[cuts[ci]:cuts[ci+1]]
		child := &kids[ci]
		child.bounds = kb[ci*bw : (ci+1)*bw : (ci+1)*bw]
		idx.fillNode(child, chunk, depth+1)
		nd.children[ci] = child
		if ci+1 < nc {
			nd.seps = append(nd.seps, chunk[len(chunk)-1].X)
		}
	}
	if nd.bounds == nil {
		nd.bounds = idx.arena.newBounds(bw)
	}
	idx.refreshBounds(nd)
}

// buildNode builds a subtree from scratch — the incremental-update entry
// point (leaf splits). It runs the same fill path as a bulk load over a
// transient arena sized to the subtree.
func (idx *Index) buildNode(pts []geom.Point, depth int) *node {
	saved := idx.arena
	idx.arena = idx.newArena(pts)
	nd := &idx.arena.newNodes(1)[0]
	idx.fillNode(nd, pts, depth)
	idx.arena = saved
	return nd
}

// newLeaf builds a standalone leaf (first insert into an empty index).
func (idx *Index) newLeaf(pts []geom.Point, depth int) *node {
	saved := idx.arena
	idx.arena = &buildArena{
		nodes:  make([]node, 0, 1),
		bounds: make([]float64, 0, 4*len(idx.angles)),
		xs:     make([]float64, 0, len(pts)),
		ys:     make([]float64, 0, len(pts)),
		ids:    make([]int32, 0, len(pts)),
	}
	nd := &idx.arena.newNodes(1)[0]
	idx.fillLeaf(nd, pts, depth)
	idx.arena = saved
	return nd
}

func (idx *Index) fillLeaf(nd *node, pts []geom.Point, depth int) {
	nd.depth = depth
	nd.lxs, nd.lys, nd.lids = idx.arena.newCols(len(pts))
	for i, p := range pts {
		nd.lxs[i], nd.lys[i], nd.lids[i] = p.X, p.Y, int32(p.ID)
	}
	if nd.bounds == nil {
		nd.bounds = idx.arena.newBounds(4 * len(idx.angles))
	}
	idx.refreshBounds(nd)
}

// refreshBounds recomputes a node's per-angle bounds from its children (or
// its points, for a leaf).
func (idx *Index) refreshBounds(nd *node) {
	for i := range nd.bounds {
		if i%4 == 0 || i%4 == 2 { // maxima
			nd.bounds[i] = math.Inf(-1)
		} else {
			nd.bounds[i] = math.Inf(1)
		}
	}
	if nd.leaf() {
		for i := range nd.lids {
			idx.mergeCoordBounds(nd, nd.lxs[i], nd.lys[i])
		}
		return
	}
	for _, c := range nd.children {
		for ai := range idx.angles {
			o := 4 * ai
			nd.bounds[o+0] = math.Max(nd.bounds[o+0], c.bounds[o+0])
			nd.bounds[o+1] = math.Min(nd.bounds[o+1], c.bounds[o+1])
			nd.bounds[o+2] = math.Max(nd.bounds[o+2], c.bounds[o+2])
			nd.bounds[o+3] = math.Min(nd.bounds[o+3], c.bounds[o+3])
		}
	}
}

// mergePointBounds widens nd's bounds to cover point p. Used by refresh and
// by the O(log n) insert path.
func (idx *Index) mergePointBounds(nd *node, p geom.Point) {
	idx.mergeCoordBounds(nd, p.X, p.Y)
}

func (idx *Index) mergeCoordBounds(nd *node, x, y float64) {
	for ai, a := range idx.angles {
		u, v := a.U(x, y), a.V(x, y)
		o := 4 * ai
		nd.bounds[o+0] = math.Max(nd.bounds[o+0], u)
		nd.bounds[o+1] = math.Min(nd.bounds[o+1], u)
		nd.bounds[o+2] = math.Max(nd.bounds[o+2], v)
		nd.bounds[o+3] = math.Min(nd.bounds[o+3], v)
	}
}

func treeDepth(nd *node) int {
	if nd == nil {
		return 0
	}
	if nd.leaf() {
		return nd.depth
	}
	d := nd.depth
	for _, c := range nd.children {
		if cd := treeDepth(c); cd > d {
			d = cd
		}
	}
	return d
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.size }

// Angles returns the indexed projection angles (sorted by degree).
func (idx *Index) Angles() []geom.Angle { return idx.angles }

// Points returns a copy of all indexed points (used for rebuilds and tests).
func (idx *Index) Points() []geom.Point {
	out := make([]geom.Point, 0, idx.size)
	var walk func(*node)
	walk = func(nd *node) {
		if nd == nil {
			return
		}
		if nd.leaf() {
			for i := range nd.lids {
				out = append(out, nd.point(i))
			}
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(idx.root)
	return out
}
