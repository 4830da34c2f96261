package top1

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/pq"
)

// Index is the §3 structure: projection angle and k are fixed at build time.
// It stores two region arrays — one for the k highest lower projections, one
// for the k lowest upper projections — and answers queries with two binary
// searches plus exact scoring of at most 2k candidates.
//
// An Index retains the full point set in two sweep-ordered arrays so that
// updates can repair the envelopes without re-deriving or re-sorting
// projections (the paper's delete relies on the same retention). Only the
// region arrays are consulted at query time.
//
// Point IDs are caller-assigned; the index never enforces uniqueness on
// Insert (duplicate IDs simply behave as distinct points that tie).
type Index struct {
	k                 int
	rawAlpha, rawBeta float64
	angle             geom.Angle
	upperRegions      []region // k-level of the lower-projection ∧ envelope
	upperLeaders      map[int32]bool
	lowerRegions      []region // k-level of the upper-projection ∨ envelope
	lowerLeaders      map[int32]bool
	byU               []geom.Point // sortForSweep order of the ∧ sweep
	byV               []geom.Point // sortForSweep order of the ∨ sweep (transformed)
	// pending buffers inserted points. Queries scan it alongside the
	// region candidates (it is capped at maxPending entries), and it is
	// merged into the sorted arrays — with a single re-sweep — only when
	// full or when a deletion forces one. This keeps every insert at
	// O(log n) amortized, the behavior the paper's update analysis
	// promises for the common dominated-point case, without an O(n)
	// envelope repair on the uncommon case.
	pending []geom.Point
}

// maxPending bounds the insert buffer: large enough that re-sweeps amortize
// into insignificance (one O(n) merge per thousands of inserts), small
// enough that scanning the buffer per query stays trivial next to the two
// binary searches.
func (idx *Index) maxPending() int {
	if n := len(idx.byU) >> 8; n > 4096 {
		return n
	}
	return 4096
}

// region is the query-time payload: the leader points themselves, so that a
// query never needs an ID-to-point lookup.
type region struct {
	xEnd float64
	pts  []geom.Point
}

// Result is one answer of a query: the point and its raw SD-score under the
// weights the index was built with.
type Result struct {
	Point geom.Point
	Score float64
}

// Config fixes the build-time parameters of the index.
type Config struct {
	Alpha float64 // weight of the repulsive (y) dimension; must be ≥ 0
	Beta  float64 // weight of the attractive (x) dimension; must be ≥ 0
	K     int     // answer size; must be ≥ 1
}

// Build constructs the index over the given points. Coordinates must be
// finite and IDs must fit in int32.
func Build(points []geom.Point, cfg Config) (*Index, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("top1: k must be ≥ 1, got %d", cfg.K)
	}
	angle, err := geom.NewAngle(cfg.Alpha, cfg.Beta)
	if err != nil {
		return nil, fmt.Errorf("top1: %w", err)
	}
	for _, p := range points {
		if err := checkPoint(p); err != nil {
			return nil, err
		}
	}
	idx := &Index{
		k:        cfg.K,
		rawAlpha: cfg.Alpha,
		rawBeta:  cfg.Beta,
		angle:    angle,
		byU:      append([]geom.Point(nil), points...),
		byV:      append([]geom.Point(nil), points...),
	}
	idx.sortArrays()
	idx.resweepUpper()
	idx.resweepLower()
	return idx, nil
}

func checkPoint(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("top1: point %d has non-finite coordinates (%v, %v)", p.ID, p.X, p.Y)
	}
	if p.ID < 0 || int64(p.ID) > math.MaxInt32 {
		return fmt.Errorf("top1: point ID %d outside int32 range", p.ID)
	}
	return nil
}

// upperItem maps a point to ∧-sweep intercept space.
func (idx *Index) upperItem(p geom.Point) item {
	return item{id: int32(p.ID), u: idx.angle.U(p.X, p.Y), v: idx.angle.V(p.X, p.Y)}
}

// lowerItem maps a point to the transformed space in which the ∨ min-envelope
// becomes a ∧ max-envelope: (u, v) → (−v, −u). Query-axis x is unchanged by
// the transform, so region boundaries remain directly comparable.
func (idx *Index) lowerItem(p geom.Point) item {
	return item{id: int32(p.ID), u: -idx.angle.V(p.X, p.Y), v: -idx.angle.U(p.X, p.Y)}
}

func (idx *Index) sortArrays() {
	sort.Slice(idx.byU, func(i, j int) bool {
		return lessItem(idx.upperItem(idx.byU[i]), idx.upperItem(idx.byU[j]))
	})
	sort.Slice(idx.byV, func(i, j int) bool {
		return lessItem(idx.lowerItem(idx.byV[i]), idx.lowerItem(idx.byV[j]))
	})
}

// resweepUpper/resweepLower rebuild one region array from the corresponding
// retained sorted array. O(n) plus sweep events; no sorting.
func (idx *Index) resweepUpper() {
	idx.upperRegions = idx.sweepFrom(idx.byU, idx.upperItem)
	idx.upperLeaders = leaderSet(idx.upperRegions)
}

func (idx *Index) resweepLower() {
	idx.lowerRegions = idx.sweepFrom(idx.byV, idx.lowerItem)
	idx.lowerLeaders = leaderSet(idx.lowerRegions)
}

func (idx *Index) sweepFrom(pts []geom.Point, toItem func(geom.Point) item) []region {
	items := make([]item, len(pts))
	byID := make(map[int32]geom.Point, 2*idx.k)
	for i, p := range pts {
		items[i] = toItem(p)
	}
	raw := sweepTopK(items, idx.angle.Beta, idx.k)
	// Resolve leader IDs to point copies. Leaders are few; collect them in
	// one pass over the raw regions, then one pass over the points.
	need := make(map[int32]bool)
	for _, r := range raw {
		for _, id := range r.IDs {
			need[id] = true
		}
	}
	for _, p := range pts {
		if need[int32(p.ID)] {
			byID[int32(p.ID)] = p
		}
	}
	out := make([]region, len(raw))
	for i, r := range raw {
		leaders := make([]geom.Point, len(r.IDs))
		for j, id := range r.IDs {
			leaders[j] = byID[id]
		}
		out[i] = region{xEnd: r.XEnd, pts: leaders}
	}
	return out
}

func leaderSet(regions []region) map[int32]bool {
	set := make(map[int32]bool)
	for _, r := range regions {
		for _, p := range r.pts {
			set[int32(p.ID)] = true
		}
	}
	return set
}

// K returns the answer size the index was built for.
func (idx *Index) K() int { return idx.k }

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.byU) + len(idx.pending) }

// Regions returns the region counts of the two envelope arrays; exposed for
// the memory-footprint experiments.
func (idx *Index) Regions() (upper, lower int) {
	return len(idx.upperRegions), len(idx.lowerRegions)
}

// score computes the raw SD-score under the build-time weights.
func (idx *Index) score(p, q geom.Point) float64 {
	return idx.rawAlpha*math.Abs(p.Y-q.Y) - idx.rawBeta*math.Abs(p.X-q.X)
}

func regionPtsAt(regions []region, x float64) []geom.Point {
	if len(regions) == 0 {
		return nil
	}
	i := sort.Search(len(regions), func(i int) bool { return regions[i].xEnd >= x })
	if i == len(regions) {
		i = len(regions) - 1 // x = +Inf: the sentinel region
	}
	return regions[i].pts
}

// Query returns the top-k points for query q, best first. Scores are in the
// raw (unnormalized) weight scale. It returns fewer than k results only when
// the index holds fewer than k points.
func (idx *Index) Query(q geom.Point) []Result {
	if len(idx.byU)+len(idx.pending) == 0 {
		return nil
	}
	collector := pq.NewTopK[geom.Point](idx.k)
	seen := make(map[int32]bool, 2*idx.k)
	consider := func(p geom.Point) {
		if seen[int32(p.ID)] {
			return
		}
		seen[int32(p.ID)] = true
		collector.Add(p, idx.score(p, q))
	}
	for _, p := range idx.pending {
		consider(p)
	}
	for _, p := range regionPtsAt(idx.upperRegions, q.X) {
		consider(p)
	}
	for _, p := range regionPtsAt(idx.lowerRegions, q.X) {
		consider(p)
	}
	scored := collector.Results()
	out := make([]Result, len(scored))
	for i, s := range scored {
		out[i] = Result{Point: s.Item, Score: s.Score}
	}
	return out
}

// Insert adds a point to the pending buffer in O(1); when the buffer
// reaches its cap the sorted arrays absorb it in one merge pass and both
// envelopes are re-swept, so the amortized insert cost is O(log n) — the
// behavior behind the paper's Figure 8b. Queries remain exact throughout:
// buffered points are scored directly alongside the region candidates.
func (idx *Index) Insert(p geom.Point) error {
	if err := checkPoint(p); err != nil {
		return err
	}
	idx.pending = append(idx.pending, p)
	if len(idx.pending) > idx.maxPending() {
		idx.flushPending()
		idx.resweepUpper()
		idx.resweepLower()
	}
	return nil
}

// flushPending merges the buffered dominated inserts into the sorted arrays
// (sort the buffer, one merge pass per array).
func (idx *Index) flushPending() {
	if len(idx.pending) == 0 {
		return
	}
	add := idx.pending
	idx.pending = nil
	idx.byU = mergeSorted(idx.byU, add, idx.upperItem)
	idx.byV = mergeSorted(idx.byV, add, idx.lowerItem)
}

// mergeSorted merges unsorted extra points into a sortForSweep-ordered base.
func mergeSorted(base, extra []geom.Point, toItem func(geom.Point) item) []geom.Point {
	extra = append([]geom.Point(nil), extra...)
	sort.Slice(extra, func(i, j int) bool { return lessItem(toItem(extra[i]), toItem(extra[j])) })
	out := make([]geom.Point, 0, len(base)+len(extra))
	i, j := 0, 0
	for i < len(base) && j < len(extra) {
		if lessItem(toItem(base[i]), toItem(extra[j])) {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, extra[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	return append(out, extra[j:]...)
}

// Delete removes the given point (matched by ID at its coordinates).
// Deleting a non-leader point splices the sorted arrays (or the pending
// buffer); deleting an envelope leader flushes the buffer — a buffered
// point may become the new leader — and re-sweeps from the retained arrays
// (O(n), no re-sorting). It reports whether the point was found.
func (idx *Index) Delete(p geom.Point) bool {
	for i, q := range idx.pending {
		if q.ID == p.ID && q.X == p.X && q.Y == p.Y {
			idx.pending = append(idx.pending[:i], idx.pending[i+1:]...)
			return true
		}
	}
	n := len(idx.byU)
	idx.byU = spliceOut(idx.byU, p, idx.upperItem)
	if len(idx.byU) == n {
		return false
	}
	idx.byV = spliceOut(idx.byV, p, idx.lowerItem)
	if idx.upperLeaders[int32(p.ID)] || idx.lowerLeaders[int32(p.ID)] {
		// The deleted point shaped an envelope. Absorb the buffer (one of
		// its points may be the new leader) and re-sweep both envelopes —
		// once buffered points enter the sorted arrays they are only
		// reachable through the region indexes.
		idx.flushPending()
		idx.resweepUpper()
		idx.resweepLower()
	}
	return true
}

func spliceOut(pts []geom.Point, p geom.Point, toItem func(geom.Point) item) []geom.Point {
	target := toItem(p)
	i := sort.Search(len(pts), func(i int) bool { return !lessItem(toItem(pts[i]), target) })
	for i < len(pts) && pts[i].ID != p.ID {
		if it := toItem(pts[i]); it.u != target.u || it.v != target.v {
			return pts // past the tie run: point not present
		}
		i++ // walk over intercept ties to the exact ID
	}
	if i == len(pts) {
		return pts
	}
	copy(pts[i:], pts[i+1:])
	return pts[:len(pts)-1]
}

// lessItem is the sortForSweep order as a two-item comparison.
func lessItem(a, b item) bool {
	if a.u != b.u {
		return a.u > b.u
	}
	if a.v != b.v {
		return a.v > b.v
	}
	return a.id < b.id
}

// RegionBytes estimates the memory held by the query-time structures (the
// two region arrays) — the quantity the paper's O(kn) storage analysis
// bounds and Figure 8h plots.
func (idx *Index) RegionBytes() int {
	total := 0
	ptSize := int(unsafe.Sizeof(geom.Point{}))
	for _, rs := range [][]region{idx.upperRegions, idx.lowerRegions} {
		total += len(rs) * int(unsafe.Sizeof(region{}))
		for _, r := range rs {
			total += len(r.pts) * ptSize
		}
	}
	return total
}

// TotalBytes estimates the full resident size of the index, including the
// sweep-ordered point arrays and the pending buffer retained for updates.
func (idx *Index) TotalBytes() int {
	ptSize := int(unsafe.Sizeof(geom.Point{}))
	return idx.RegionBytes() + (len(idx.byU)+len(idx.byV)+len(idx.pending))*ptSize
}
