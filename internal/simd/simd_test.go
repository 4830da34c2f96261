package simd

import (
	"math"
	"math/rand"
	"testing"
)

// scalar reference implementations — the "obvious loop" every kernel must
// match bit for bit.

func blendKeysScalar(dst, xs, ys []float64, cx, cy float64) {
	for i := range dst {
		dst[i] = cy*ys[i] + cx*xs[i]
	}
}

func scoreColsScalar(dst []float64, cols []float64, rows, off int, q, signed []float64) {
	for j := range dst {
		var s float64
		for d := range q {
			s += signed[d] * math.Abs(cols[d*rows+off+j]-q[d])
		}
		dst[j] = s
	}
}

// boxBoundScalar is the per-box reference of BoxBounds: one box, one
// branch per dimension.
func boxBoundScalar(lo, hi, q, signed []float64) float64 {
	var b float64
	for d, w := range signed[:len(q)] {
		switch qd := q[d]; {
		case w > 0:
			b += w * math.Max(math.Abs(qd-lo[d]), math.Abs(qd-hi[d]))
		case w < 0 && qd < lo[d]:
			b += w * (lo[d] - qd)
		case w < 0 && qd > hi[d]:
			b += w * (qd - hi[d])
		}
	}
	return b
}

func randVals(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(16) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return out
}

func requireBitEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%v), want %x (%v)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestKernelBitIdentity pins every kernel to byte-equality with the scalar
// reference, across sizes that exercise the 8-wide body, the tail, and the
// empty case, and for BlendKeys across random lengths and every sign
// combination of its coefficients.
func TestKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200}
	for _, n := range sizes {
		xs := randVals(rng, n)
		ys := randVals(rng, n)
		cx := rng.Float64() - 0.5
		cy := rng.Float64() - 0.5
		got := make([]float64, n)
		want := make([]float64, n)
		BlendKeys(got, xs, ys, cx, cy)
		blendKeysScalar(want, xs, ys, cx, cy)
		requireBitEqual(t, "BlendKeys", got, want)
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		xs := randVals(rng, n)
		ys := randVals(rng, n)
		cx := math.Copysign(rng.Float64(), float64(rng.Intn(2)*2-1))
		cy := math.Copysign(rng.Float64(), float64(rng.Intn(2)*2-1))
		got := make([]float64, n)
		want := make([]float64, n)
		BlendKeys(got, xs, ys, cx, cy)
		blendKeysScalar(want, xs, ys, cx, cy)
		requireBitEqual(t, "BlendKeys (random signs)", got, want)
	}
	// The sweep kernel, at offsets that put the block's start, its 8-wide
	// body and its tail everywhere in the column.
	for _, n := range sizes {
		for _, dims := range []int{0, 1, 2, 6, 13} {
			rows := n + 11
			off := rng.Intn(12)
			cols := randVals(rng, rows*dims)
			q := randVals(rng, dims)
			signed := randVals(rng, dims)
			got := make([]float64, n)
			want := make([]float64, n)
			ScoreCols(got, cols, rows, off, q, signed)
			scoreColsScalar(want, cols, rows, off, q, signed)
			requireBitEqual(t, "ScoreCols", got, want)
		}
	}
}

// BenchmarkScoreKernel compares the scalar reference loop with the unrolled
// kernel on the leaf-scan blend, on the one sweep kernel, ScoreCols, and on
// the box-bound pass, BoxBounds. The
// dims=6 column case mirrors a sweep of a segment or the memtable: both are
// dimension-major blocks swept 512 rows at a time.
func BenchmarkScoreKernel(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	xs := randVals(rng, n)
	ys := randVals(rng, n)
	dst := make([]float64, n)

	b.Run("blend-scalar", func(b *testing.B) {
		b.SetBytes(n * 16)
		for i := 0; i < b.N; i++ {
			blendKeysScalar(dst, xs, ys, 0.25, 0.75)
		}
	})
	b.Run("blend-unrolled", func(b *testing.B) {
		b.SetBytes(n * 16)
		for i := 0; i < b.N; i++ {
			BlendKeys(dst, xs, ys, 0.25, 0.75)
		}
	})

	const dims = 6
	cols := randVals(rng, n*dims)
	q := randVals(rng, dims)
	signed := randVals(rng, dims)
	b.Run("cols-scalar", func(b *testing.B) {
		b.SetBytes(n * dims * 8)
		for i := 0; i < b.N; i++ {
			scoreColsScalar(dst, cols, n, 0, q, signed)
		}
	})
	b.Run("cols-sweep", func(b *testing.B) {
		b.SetBytes(n * dims * 8)
		for i := 0; i < b.N; i++ {
			for off := 0; off < n; off += 512 {
				ScoreCols(dst[off:off+512], cols, n, off, q, signed)
			}
		}
	})

	// The zone sweep's bound pass over n boxes, one box at a time against
	// the one dimension-major pass; half the weights attractive.
	lo, hi := randVals(rng, n*dims), randVals(rng, n*dims)
	for i := range lo {
		lo[i], hi[i] = math.Min(lo[i], hi[i]), math.Max(lo[i], hi[i])
	}
	for d := range signed {
		signed[d] = math.Abs(signed[d]) * float64(1-2*(d%2))
	}
	b.Run("boxes-scalar", func(b *testing.B) {
		b.SetBytes(n * dims * 16)
		boxLo, boxHi := make([]float64, dims), make([]float64, dims)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				for d := 0; d < dims; d++ {
					boxLo[d], boxHi[d] = lo[d*n+j], hi[d*n+j]
				}
				dst[j] = boxBoundScalar(boxLo, boxHi, q, signed)
			}
		}
	})
	b.Run("boxes", func(b *testing.B) {
		b.SetBytes(n * dims * 16)
		for i := 0; i < b.N; i++ {
			BoxBounds(dst, lo, hi, q, signed)
		}
	})
}

// TestBoxBoundCoversScores checks BoxBounds against ScoreCols over random
// boxes: degenerate ones (lo == hi), boxes whose rows are all equal,
// denormal extents and the value domain's ±1e150 corners, each queried
// from inside, on the faces and from outside, under repulsive, attractive,
// ignored (±0) and huge weights. The bound padded the way the zone sweep
// pads it must cover the exact score of every row in the box; the bare bound
// does too, since each of its operations is monotone in the coordinate, and
// on a degenerate box it equals the row's score bit for bit (BRS returns
// that value as the point's score).
func TestBoxBoundCoversScores(t *testing.T) {
	const dims, rows = 5, 64
	const slack = 64 * 0x1p-52 // the zone sweep's floatSlack
	rng := rand.New(rand.NewSource(11))
	coord := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64()
		case 1: // denormal
			return (rng.Float64() - 0.5) * 0x1p-1030
		case 2: // a domain corner
			return []float64{-1e150, 1e150}[rng.Intn(2)]
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	lo, hi := make([]float64, dims), make([]float64, dims)
	q, signed := make([]float64, dims), make([]float64, dims)
	cols := make([]float64, dims*rows)
	scores := make([]float64, rows)
	var bound [1]float64
	for trial := 0; trial < 5000; trial++ {
		kind, shape := rng.Intn(4), rng.Intn(3) // shape 0 degenerate, 1 all rows equal
		for d := 0; d < dims; d++ {
			a, b := coord(kind), coord(kind)
			if shape == 0 || rng.Intn(8) == 0 {
				b = a
			}
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
			switch rng.Intn(5) {
			case 0:
				q[d] = lo[d]
			case 1:
				q[d] = hi[d]
			case 2:
				q[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			default:
				q[d] = coord(kind)
			}
			w := []float64{rng.Float64(), 1e150, 0}[rng.Intn(3)]
			switch rng.Intn(3) {
			case 0:
				signed[d] = w
			case 1:
				signed[d] = -w
			}
		}
		for r := 0; r < rows; r++ {
			for d := 0; d < dims; d++ {
				v := lo[d]
				switch {
				case shape == 1:
				case rng.Intn(4) == 0:
					v = hi[d]
				default:
					v = math.Min(hi[d], math.Max(lo[d], lo[d]+rng.Float64()*(hi[d]-lo[d])))
				}
				cols[d*rows+r] = v
			}
		}
		ScoreCols(scores, cols, rows, 0, q, signed)
		BoxBounds(bound[:], lo, hi, q, signed)
		bound := bound[0]
		var pad float64
		for d := range q {
			pad += math.Abs(signed[d]) * math.Max(math.Abs(lo[d]-q[d]), math.Abs(hi[d]-q[d]))
		}
		padded := bound + slack*pad
		for r, sc := range scores {
			if sc > bound || sc > padded {
				t.Fatalf("trial %d row %d: score %v above bound %v (padded %v)\nlo %v\nhi %v\nq %v\nsigned %v",
					trial, r, sc, bound, padded, lo, hi, q, signed)
			}
		}
		if shape == 0 {
			requireBitEqual(t, "degenerate box", []float64{bound}, scores[:1])
		}
	}
}

// TestBoxBoundsBitIdentity pins BoxBounds, box by box, to boxBoundScalar bit
// for bit: at 1, 2, 6 and 7 dimensions, over 1, 7, 8 and 1,001 boxes, under
// positive, negative and ±0 weights, with q below, inside, above and on the
// edges of each box's intervals, over degenerate (lo == hi) boxes, denormal
// extents, signed zeros and the value domain's ±1e150 corners.
func TestBoxBoundsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coord := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64()
		case 1: // denormal
			return (rng.Float64() - 0.5) * 0x1p-1030
		case 2: // a domain corner
			return []float64{-1e150, 1e150, rng.Float64()}[rng.Intn(3)]
		case 3: // signed zeros and exact ties
			return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		default:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	for _, dims := range []int{1, 2, 6, 7} {
		for _, n := range []int{1, 7, 8, 1001} {
			for trial := 0; trial < 20; trial++ {
				kind := trial % 5
				lo, hi := make([]float64, dims*n), make([]float64, dims*n)
				for i := range lo {
					a, b := coord(kind), coord(kind)
					if rng.Intn(4) == 0 { // degenerate
						b = a
					}
					lo[i], hi[i] = math.Min(a, b), math.Max(a, b)
				}
				q, signed := make([]float64, dims), make([]float64, dims)
				for d := range q {
					// q against the first box's interval; the other boxes
					// see it anywhere relative to theirs.
					switch l, h := lo[d*n], hi[d*n]; rng.Intn(5) {
					case 0:
						q[d] = l
					case 1:
						q[d] = h
					case 2:
						q[d] = l + rng.Float64()*(h-l)
					case 3:
						q[d] = math.Nextafter(l, math.Inf(-1))
					default:
						q[d] = coord(kind)
					}
					w := []float64{rng.Float64(), 1e150, 0x1p-1060}[rng.Intn(3)]
					switch rng.Intn(4) {
					case 0:
						signed[d] = w
					case 1:
						signed[d] = -w
					case 2:
						signed[d] = math.Copysign(0, float64(rng.Intn(2)*2-1))
					default:
						signed[d] = rng.Float64() - 0.5
					}
				}
				got, want := make([]float64, n), make([]float64, n)
				BoxBounds(got, lo, hi, q, signed)
				boxLo, boxHi := make([]float64, dims), make([]float64, dims)
				for b := range want {
					for d := 0; d < dims; d++ {
						boxLo[d], boxHi[d] = lo[d*n+b], hi[d*n+b]
					}
					want[b] = boxBoundScalar(boxLo, boxHi, q, signed)
				}
				requireBitEqual(t, "BoxBounds", got, want)
			}
		}
	}
}
