package core

import "math"

// Tiling: the zone sweep's storage order. A sealed segment keeps its rows in
// STR (Sort-Tile-Recursive) order, cut into blockRows-row blocks that each
// carry a min/max box over every dimension, so a sweep can bound a whole
// block by its box (simd.BoxBound) and skip it unscored when the bound falls
// below the prune line (sweep.go). Tiling is derived state: it is rebuilt
// at every seal — bulk build, compaction, Load — from the rows in ID order,
// and never written to a file (Save writes ID order).
//
// STR on d key dimensions: sort the rows by the first key dimension and cut
// them into ⌈P^(1/d)⌉ slabs of whole blocks (P the range's block count), then
// tile each slab the same way on the remaining d−1 dimensions; the last
// dimension's sort is cut straight into blocks. The key dimensions are the
// engine's active (non-Ignored) ones, in ascending order: an Ignored
// dimension never scores, so slabbing on it would only coarsen the boxes
// that do.
//
// Each sort is a stable LSD radix sort on a monotone 32-bit key — the value
// rounded to float32, mapped to order-preserving bits — over rows fed in in
// ID order, so the tiling is a pure function of the rows: a reload rebuilds
// the same blocks and the same per-query Stats. Rounding only merges nearly
// equal keys, which can move a row between neighbouring blocks but never
// changes an answer: boxes are taken from the exact float64 values.

// blockRows is the zone sweep's unit: rows per block, and per box. One box
// bound costs about what scoring one row does, so a block bound is 1/128 of
// the block's sweep.
const blockRows = 128

// blocks is the segment's block count: ⌈rows/blockRows⌉.
func (s *segment) blocks() int { return (s.rows + blockRows - 1) / blockRows }

// box returns block b's per-dimension minima and maxima.
func (s *segment) box(b, dims int) (lo, hi []float64) {
	box := s.boxes[2*b*dims : 2*(b+1)*dims]
	return box[:dims], box[dims:]
}

// tile fills s's tiled state from its rows (cols dimension-major and ids
// ascending, both in ID order): the STR order's ids and columns, byID, and
// every block's box. A segment of one block keeps its ID order. cols and ids
// are only read.
func (s *segment) tile(cols []float64, ids []int32, keyDims []int) {
	rows := s.rows
	dims := len(cols) / rows
	perm := strOrder(cols, rows, keyDims)
	s.ids, s.byID = make([]int32, rows), make([]int32, rows)
	for l, r := range perm {
		s.ids[l] = ids[r]
		s.byID[r] = int32(l)
	}
	s.cols = make([]float64, len(cols))
	for d := 0; d < dims; d++ {
		src, dst := cols[d*rows:(d+1)*rows], s.cols[d*rows:(d+1)*rows]
		for l, r := range perm {
			dst[l] = src[r]
		}
	}
	nb := s.blocks()
	s.boxes = make([]float64, 2*nb*dims)
	for d := 0; d < dims; d++ {
		col := s.cols[d*rows : (d+1)*rows]
		for b := 0; b < nb; b++ {
			c := col[b*blockRows : min((b+1)*blockRows, rows)]
			mn, mx := c[0], c[0]
			for _, v := range c[1:] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			lo, hi := s.box(b, dims)
			lo[d], hi[d] = mn, mx
		}
	}
}

// tiledBits converts a tombstone bitset over the segment's rows in ID order
// (bit r: the r-th smallest ID) to tiled order, and idBits back. Both return
// nil for an empty set and otherwise end at their last set word, so a bitset
// reads the same length however it was made.
func (s *segment) tiledBits(rank []uint64) []uint64 {
	var out []uint64
	for r := range s.byID {
		if bitGet(rank, r) {
			out = setBit(out, int(s.byID[r]), s.rows)
		}
	}
	return trimBits(out)
}

func (s *segment) idBits(tiled []uint64) []uint64 {
	var out []uint64
	for r, l := range s.byID {
		if bitGet(tiled, int(l)) {
			out = setBit(out, r, s.rows)
		}
	}
	return trimBits(out)
}

// setBit sets bit i of a bitset over n rows, allocating it whole on first use.
func setBit(bits []uint64, i, n int) []uint64 {
	if bits == nil {
		bits = make([]uint64, (n+63)/64)
	}
	bits[i>>6] |= 1 << (uint(i) & 63)
	return bits
}

// trimBits drops a bitset's trailing zero words, returning nil when none is
// left.
func trimBits(bits []uint64) []uint64 {
	n := len(bits)
	for n > 0 && bits[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return bits[:n:n]
}

// strOrder returns the STR order of rows rows of dimension-major cols over
// the key dimensions keyDims: perm[l] is the ID-order row placed at local
// row l.
func strOrder(cols []float64, rows int, keyDims []int) []int32 {
	perm := make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	if rows <= blockRows || len(keyDims) == 0 {
		return perm // one block, or no key: ID order
	}
	t := &strTiler{
		keys: make([][2][]uint32, len(keyDims)),
		perm: [2][]int32{perm, make([]int32, rows)},
		sort: [2][]uint64{make([]uint64, rows), make([]uint64, rows)},
	}
	// Each level's keys are a column kept in the order built so far: a
	// level sorts by its own column and gathers the deeper levels' columns
	// and the order after it, all within the range it works on.
	for lv, d := range keyDims {
		t.keys[lv][0] = make([]uint32, rows)
		if lv > 0 {
			t.keys[lv][1] = make([]uint32, rows)
		}
		for r, v := range cols[d*rows : (d+1)*rows] {
			t.keys[lv][0][r] = sortKey(v)
		}
	}
	t.tile(0, rows, 0)
	return perm
}

// strTiler is strOrder's working state. keys[lv] and perm hold each
// level's key column and the ID-order rows in the order built so far, in
// their [parity] buffer for the range a level works on: level lv reads
// buffer lv%2 and writes the next level's into the other one.
type strTiler struct {
	keys [][2][]uint32
	perm [2][]int32
	sort [2][]uint64 // the radix sort's buffers: key<<32 | position in range
}

// tile orders [a, b) on the keys of levels level and up, leaving the range's
// final order in perm[0]. A range of one block is not sorted: the order
// inside a block reaches no box.
func (t *strTiler) tile(a, b, level int) {
	cur := level % 2
	if b-a <= blockRows {
		t.finish(a, b, cur)
		return
	}
	sorted := t.sortBy(a, b, level)
	next := 1 - cur
	gather32(t.perm[next][a:b], t.perm[cur][a:b], sorted)
	left := len(t.keys) - level - 1
	if left == 0 {
		t.finish(a, b, next)
		return
	}
	for lv := level + 1; lv < len(t.keys); lv++ {
		gather32(t.keys[lv][next][a:b], t.keys[lv][cur][a:b], sorted)
	}
	blocks := (b - a + blockRows - 1) / blockRows
	slabs := ceilRoot(blocks, left+1) // ⌈P^(1/d)⌉, d counting this level's dimension
	per := (blocks + slabs - 1) / slabs * blockRows
	for s := a; s < b; s += per {
		t.tile(s, min(s+per, b), level+1)
	}
}

// finish moves range [a, b)'s final order from perm buffer from to perm[0].
func (t *strTiler) finish(a, b, from int) {
	if from != 0 {
		copy(t.perm[0][a:b], t.perm[from][a:b])
	}
}

// gather32 sets dst[j] = src[the position in sorted[j]'s low half].
func gather32[T int32 | uint32](dst, src []T, sorted []uint64) {
	dst = dst[:len(sorted)]
	for j, x := range sorted {
		dst[j] = src[uint32(x)]
	}
}

// sortBy stably sorts range [a, b) by its level key and returns the sorted
// (key, position in range) pairs: an LSD radix sort of the key's four 8-bit
// digits, skipping every digit all keys share.
func (t *strTiler) sortBy(a, b, level int) []uint64 {
	src, dst := t.sort[0][a:b], t.sort[1][a:b]
	var counts [4][256]int
	for i, k := range t.keys[level][level%2][a:b] {
		src[i] = uint64(k)<<32 | uint64(i)
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24]++
	}
	first := src[0] >> 32
	for pass := range counts {
		shift := 32 + 8*uint(pass)
		c := &counts[pass]
		if c[first>>(shift-32)&0xff] == len(src) {
			continue // one digit value: the pass would move nothing
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, x := range src {
			j := x >> shift & 0xff
			dst[c[j]] = x
			c[j]++
		}
		src, dst = dst, src
	}
	return src
}

// sortKey maps a coordinate to an order-preserving uint32: rounded to
// float32 (clamped to its finite range first, where Go leaves the rounding
// of an out-of-range value to the implementation), then sign-flipped so
// negative values sort below positive ones and reversed among themselves.
func sortKey(v float64) uint32 {
	if v > math.MaxFloat32 {
		v = math.MaxFloat32
	} else if v < -math.MaxFloat32 {
		v = -math.MaxFloat32
	}
	f := math.Float32bits(float32(v))
	if f>>31 != 0 {
		return ^f
	}
	return f | 1<<31
}

// ceilRoot returns the smallest s ≥ 1 with s^k ≥ n: the STR slab count of n
// blocks over k dimensions. Powers of small integers are exact in float64
// below 2^53, and n is far below that.
func ceilRoot(n, k int) int {
	pow := func(s int) float64 { return math.Pow(float64(s), float64(k)) }
	s := max(1, int(math.Pow(float64(n), 1/float64(k))))
	for s > 1 && pow(s-1) >= float64(n) {
		s--
	}
	for pow(s) < float64(n) {
		s++
	}
	return s
}
