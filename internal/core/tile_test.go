package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline/scan"
	"repro/internal/query"
	"repro/internal/simd"
)

// zoneCorners are the value corners the zone-sweep tests draw rows and query
// points from: where a box bound or the STR sort could go wrong — ties
// everywhere, subnormal extents, and the value domain's ends.
var zoneCorners = []string{"uniform", "clustered", "all-equal", "denormal", "corners"}

// zoneValues returns a coordinate generator for one corner.
func zoneValues(kind string, rng *rand.Rand) func() float64 {
	centers := []float64{0.1, 0.35, 0.6, 0.9}
	switch kind {
	case "clustered":
		return func() float64 { return centers[rng.Intn(len(centers))] + 0.02*rng.NormFloat64() }
	case "all-equal":
		return func() float64 { return 0.25 }
	case "denormal":
		return func() float64 { return (rng.Float64() - 0.5) * 0x1p-1040 }
	case "corners":
		return func() float64 { return []float64{-1e150, 1e150, rng.Float64()}[rng.Intn(3)] }
	}
	return rng.Float64
}

var zoneRoles = []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive, query.Repulsive}

// zoneSpec draws a query from one corner: its point from the corner's
// values, weights uniform with some zeros (and, at the corners, some 1e150),
// and now and then every weight zero, where every row ties at +0.
func zoneSpec(kind string, rng *rand.Rand, value func() float64, k int) query.Spec {
	spec := query.Spec{
		Point:   make([]float64, len(zoneRoles)),
		K:       k,
		Roles:   zoneRoles,
		Weights: make([]float64, len(zoneRoles)),
	}
	zero := rng.Intn(12) == 0
	for d := range spec.Point {
		spec.Point[d] = value()
		switch {
		case zero || rng.Intn(5) == 0:
		case kind == "corners" && rng.Intn(4) == 0:
			spec.Weights[d] = 1e150
		default:
			spec.Weights[d] = rng.Float64()
		}
	}
	return spec
}

// liveOracle is the scan over an engine's live rows in ascending ID order —
// the order the scan breaks ties in — with the map from scan row to ID.
func liveOracle(t *testing.T, data [][]float64, removed map[int]bool) (*scan.Engine, []int) {
	t.Helper()
	var rows [][]float64
	var ids []int
	for id, p := range data {
		if !removed[id] {
			rows, ids = append(rows, p), append(ids, id)
		}
	}
	oracle, err := scan.New(rows)
	if err != nil {
		t.Fatal(err)
	}
	return oracle, ids
}

// TestZoneSweepSkipsNoTopKRow is the zone sweep's property test: over tiled
// segments of every value corner, with tombstones, at k ∈ {1, 5, 50, all},
// on engines of three segments and of one, every answer is the scan's, bit
// for bit, answers and Stats equal the full-heap walk's (heapWalkTopK), and
// no block a sweep skipped could have held a top-k row. A block is skipped only
// when its padded bound is below the prune line, which never rises above
// the final k-th score; so every block's padded bound is checked to cover
// the exact score of each of its live rows, no block bounded below the k-th
// score may hold an answer row, and the query's BlocksSkipped may not
// exceed the number of such blocks. Every corner but all-equal rows must
// skip some blocks, or the test would hold of a sweep that skips nothing.
func TestZoneSweepSkipsNoTopKRow(t *testing.T) {
	const n = 1500
	for ci, kind := range zoneCorners {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		value := zoneValues(kind, rng)
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, len(zoneRoles))
			for d := range data[i] {
				data[i][d] = value()
			}
		}
		labels := []string{"three-segment", "one-segment"}
		var engs []*Engine
		for _, opt := range []RuntimeOptions{
			{Segments: 3, DisableCompaction: true},
			{DisableCompaction: true},
		} {
			eng, err := New(data, Config{Roles: zoneRoles, RuntimeOptions: opt})
			if err != nil {
				t.Fatal(err)
			}
			engs = append(engs, eng)
		}
		removed := map[int]bool{}
		for id := range data {
			if rng.Intn(7) == 0 {
				removed[id] = true
				for _, eng := range engs {
					eng.Remove(id)
				}
			}
		}
		oracle, ids := liveOracle(t, data, removed)
		skipped := 0
		for _, eng := range engs {
			for _, seg := range eng.snap.Load().segs {
				if seg.blocks() < 2 {
					t.Fatalf("%s: a %d-row segment is not tiled", kind, seg.rows)
				}
			}
		}
		for _, k := range []int{1, 5, 50, n} {
			for qi := 0; qi < 12; qi++ {
				spec := zoneSpec(kind, rng, value, k)
				want, err := oracle.TopK(spec)
				if err != nil {
					t.Fatal(err)
				}
				for ei, eng := range engs {
					got, st, err := eng.TopKWithStats(spec)
					if err != nil {
						t.Fatal(err)
					}
					label := labels[ei]
					ref, rst := heapWalkTopK(t, eng, spec)
					if st != rst || len(got) != len(ref) {
						t.Fatalf("%s/%s k=%d query %d: stats %+v and %d results, the full-heap walk's %+v and %d",
							kind, label, k, qi, st, len(got), rst, len(ref))
					}
					for i := range ref {
						if got[i].ID != ref[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) {
							t.Fatalf("%s/%s k=%d query %d rank %d: %+v, the full-heap walk's %+v", kind, label, k, qi, i, got[i], ref[i])
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%s k=%d query %d: %d results, scan %d", kind, label, k, qi, len(got), len(want))
					}
					answer := map[int]bool{}
					for i, w := range want {
						if got[i].ID != ids[w.ID] || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
							t.Fatalf("%s/%s k=%d query %d rank %d: (%d, %v), scan (%d, %v)",
								kind, label, k, qi, i, got[i].ID, got[i].Score, ids[w.ID], w.Score)
						}
						answer[got[i].ID] = true
					}
					kth := math.Inf(-1) // the line never rises while fewer than k rows are kept
					if len(want) == k {
						kth = want[k-1].Score
					}
					below := zoneBlocksBelow(t, eng, spec, kth, answer)
					skipped += st.BlocksSkipped
					if st.BlocksSkipped > below || st.BlocksBounded == 0 {
						t.Fatalf("%s/%s k=%d query %d: %d blocks skipped, but only %d are bounded below the k-th score (%+v)",
							kind, label, k, qi, st.BlocksSkipped, below, st)
					}
				}
			}
		}
		// Rows that all tie leave nothing to skip; every other corner must.
		if (skipped == 0) != (kind == "all-equal") {
			t.Fatalf("%s: %d blocks skipped over the whole run", kind, skipped)
		}
	}
}

// heapWalkTopK answers spec on eng's current snapshot the way TopKWithStats
// does, but zone-sweeps each segment with heapWalkZones: the reference the
// seeded walk of sweepZones must match in answers and in every Stats field.
func heapWalkTopK(t *testing.T, eng *Engine, spec query.Spec) ([]query.Result, Stats) {
	t.Helper()
	sn := eng.snap.Load()
	c := eng.getCtx(sn)
	defer eng.putCtx(c)
	if err := c.derivePlan(spec); err != nil {
		t.Fatal(err)
	}
	c.coll.Reset(spec.K)
	stats := Stats{Segments: len(sn.segs)}
	cols, stride, ids, dead := sn.layer(memSrc, eng.dims)
	c.sweep(cols, stride, ids, dead, spec.Point)
	stats.Scored += len(ids) - popcount(dead)
	for si, seg := range sn.segs {
		n := seg.rows - popcount(sn.tombs[si])
		scored := n
		if seg.blocks() > 1 {
			scored = c.heapWalkZones(si, spec.Point, &stats)
		} else {
			c.sweep(seg.cols, seg.rows, seg.ids, sn.tombs[si], spec.Point)
		}
		stats.Scored += scored
		stats.Swept += n
		stats.SweptSegments++
	}
	return c.appendResults(nil), stats
}

// heapWalkZones is the zone sweep's walk without a seeded line: every block
// whose padded bound reaches the line at entry goes on the max-heap, and
// blocks pop best bound first, the lower block on a tie, until the best bound
// left is strictly below the line.
func (c *queryCtx) heapWalkZones(si int, qpt []float64, stats *Stats) (scored int) {
	seg, dead := c.sn.segs[si], c.sn.tombs[si]
	nb := seg.blocks()
	bound := make([]float64, nb)
	half := len(seg.boxes) / 2
	simd.BoxBounds(bound, seg.boxes[:half], seg.boxes[half:], qpt, c.signed)
	var h []int32
	line := c.coll.Threshold()
	for b := range bound {
		ub := bound[b] + c.zonePad
		if math.IsNaN(ub) {
			ub = math.Inf(1)
		}
		if bound[b] = ub; ub >= line {
			h = append(h, int32(b))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, bound)
	}
	popped := 0
	for len(h) > 0 && bound[h[0]] >= c.coll.Threshold() {
		b := int(h[0])
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0, bound)
		popped++
		lo, hi := b*blockRows, min((b+1)*blockRows, seg.rows)
		c.sweepRows(seg.cols, seg.rows, seg.ids, dead, lo, hi, qpt)
		scored += hi - lo - popcountRange(dead, lo, hi)
	}
	stats.BlocksBounded += nb
	stats.BlocksSkipped += nb - popped
	return scored
}

// zoneBlocksBelow checks every block of eng's segments against spec: its
// padded box bound must cover the exact score of each live row in it, and a
// block bounded strictly below kth must hold no row of answer. It returns
// how many blocks are bounded below kth.
func zoneBlocksBelow(t *testing.T, eng *Engine, spec query.Spec, kth float64, answer map[int]bool) int {
	t.Helper()
	sn := eng.snap.Load()
	c := eng.getCtx(sn)
	defer eng.putCtx(c)
	if err := c.derivePlan(spec); err != nil {
		t.Fatal(err)
	}
	below := 0
	scores := make([]float64, blockRows)
	for si, seg := range sn.segs {
		bounds := make([]float64, seg.blocks())
		half := len(seg.boxes) / 2
		simd.BoxBounds(bounds, seg.boxes[:half], seg.boxes[half:], spec.Point, c.signed)
		for b := range bounds {
			bound := bounds[b] + c.zonePad
			first, end := b*blockRows, min((b+1)*blockRows, seg.rows)
			simd.ScoreCols(scores[:end-first], seg.cols, seg.rows, first, spec.Point, c.signed)
			for j, sc := range scores[:end-first] {
				l := first + j
				if bitGet(sn.tombs[si], l) {
					continue
				}
				if sc > bound {
					t.Fatalf("segment %d block %d: row %d scores %v above the padded bound %v", si, b, seg.ids[l], sc, bound)
				}
				if bound < kth && answer[int(seg.ids[l])] {
					t.Fatalf("segment %d block %d: bound %v below the k-th score %v holds answer row %d", si, b, bound, kth, seg.ids[l])
				}
			}
			if bound < kth {
				below++
			}
		}
	}
	return below
}

// TestTiledSaveLoadRoundTrip saves tiled segments with tombstones (and a
// memtable), loads the file and saves again: the bytes are identical, since
// Save writes ID order whatever the tiling, and the reloaded engine — tiled
// afresh from those bytes — reports the same Bytes and, query by query, the
// same answers and the same Stats.
func TestTiledSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	value := zoneValues("clustered", rng)
	data := make([][]float64, 3000)
	for i := range data {
		data[i] = make([]float64, len(zoneRoles))
		for d := range data[i] {
			data[i][d] = value()
		}
	}
	e, err := New(data, Config{Roles: zoneRoles, RuntimeOptions: RuntimeOptions{Segments: 2, DisableCompaction: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p := make([]float64, len(zoneRoles))
		for d := range p {
			p[d] = value()
		}
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < len(data)+40; id += 1 + rng.Intn(40) {
		e.Remove(id)
	}
	var first bytes.Buffer
	if err := e.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()), RuntimeOptions{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-saved file differs (%d bytes, first %d)", second.Len(), first.Len())
	}
	if e.Bytes() != loaded.Bytes() {
		t.Fatalf("Bytes %d after the round trip, %d before", loaded.Bytes(), e.Bytes())
	}
	for _, k := range []int{1, 5, 50} {
		for qi := 0; qi < 10; qi++ {
			spec := zoneSpec("clustered", rng, value, k)
			want, wst, err := e.TopKWithStats(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := loaded.TopKWithStats(spec)
			if err != nil {
				t.Fatal(err)
			}
			if gst != wst {
				t.Fatalf("k=%d query %d: stats after the round trip %+v, before %+v", k, qi, gst, wst)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d query %d rank %d: %+v after the round trip, %+v before", k, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRemoveDuringCompaction lands Removes between a compaction's build and
// its swap — on rows of the tiled segment it folds and of the memtable it
// seals — so the swap must re-apply their tombstones in the output, which is
// tiled: at the local row each ID's rank was tiled to, not at the rank. Then
// every ID must be alive exactly when it was never removed, and answers must
// match the scan over the live rows.
func TestRemoveDuringCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	value := zoneValues("uniform", rng)
	row := func() []float64 {
		p := make([]float64, len(zoneRoles))
		for d := range p {
			p[d] = value()
		}
		return p
	}
	data := make([][]float64, 2000)
	for i := range data {
		data[i] = row()
	}
	e, err := New(data, Config{Roles: zoneRoles, RuntimeOptions: RuntimeOptions{DisableCompaction: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		p := row()
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
		data = append(data, p)
	}
	removed := map[int]bool{}
	remove := func(id int) {
		if !e.Remove(id) {
			t.Fatalf("Remove(%d) found no live row", id)
		}
		removed[id] = true
	}
	remove(5)
	remove(2100)
	e.builtHook = func() {
		e.builtHook = nil
		for _, id := range []int{0, 7, 64, 129, 1024, 1999, 2000, 2150, 2299} {
			remove(id)
		}
	}
	e.Compact()
	if e.builtHook != nil {
		t.Fatal("the compaction built nothing")
	}
	if segs, mem := e.Segments(); segs != 1 || mem != 0 {
		t.Fatalf("%d segments and %d memtable rows after Compact, want 1 and 0", segs, mem)
	}
	for id := range data {
		if e.Alive(id) == removed[id] {
			t.Fatalf("ID %d: alive %v, removed %v", id, e.Alive(id), removed[id])
		}
	}
	if e.Len() != len(data)-len(removed) {
		t.Fatalf("Len %d, want %d", e.Len(), len(data)-len(removed))
	}
	oracle, ids := liveOracle(t, data, removed)
	for _, k := range []int{1, 5, 50, len(data)} {
		spec := zoneSpec("uniform", rng, value, k)
		want, err := oracle.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, scan %d", k, len(got), len(want))
		}
		for i, w := range want {
			if got[i].ID != ids[w.ID] || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
				t.Fatalf("k=%d rank %d: (%d, %v), scan (%d, %v)", k, i, got[i].ID, got[i].Score, ids[w.ID], w.Score)
			}
		}
	}
}
