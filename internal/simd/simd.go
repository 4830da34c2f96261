// Package simd holds the engine's innermost loops — the contribution and
// score kernels every query funnels through — written so the hot work runs
// at hardware speed without giving up the bit-exactness the differential
// harness enforces.
//
// Three design rules govern every kernel here:
//
//  1. Unroll across independent outputs, never within one output. Each
//     output value (a projection key, a row score) is computed with exactly
//     the operation order of the obvious scalar loop, so results are
//     bit-identical to the reference implementation; the 8-wide unrolling
//     only interleaves *independent* computations, which changes no
//     rounding. Fused multiply-add — a different rounding — stays
//     forbidden.
//
//  2. Hoist every per-element branch to the call site. The callers
//     pre-resolve projection kinds and weight signs into
//     plain coefficients, so the loops are branch-free and the compiler
//     keeps them in registers.
//
//  3. Eliminate bounds checks by reslicing to a length the compiler can
//     reason about ([:8:8] blocks over a len&^7 prefix), not by unsafe.
//
// TestKernelBitIdentity pins every kernel to byte-equality with its scalar
// reference.
package simd

import "math"

// BlendKeys fills dst[i] = cy*ys[i] + cx*xs[i] — the blended projection
// intercept of every point of a tree leaf at the query angle, the kernel of
// the topk leaf-cursor scan. The caller folds the projection kind into the
// coefficient signs (cy = ±α, cx = ±β), so one kernel serves all four
// streams. xs and ys must be at least len(dst) long.
func BlendKeys(dst, xs, ys []float64, cx, cy float64) {
	xs = xs[:len(dst)]
	ys = ys[:len(dst)]
	for len(dst) >= 8 {
		d := dst[:8:8]
		x := xs[:8:8]
		y := ys[:8:8]
		d[0] = cy*y[0] + cx*x[0]
		d[1] = cy*y[1] + cx*x[1]
		d[2] = cy*y[2] + cx*x[2]
		d[3] = cy*y[3] + cx*x[3]
		d[4] = cy*y[4] + cx*x[4]
		d[5] = cy*y[5] + cx*x[5]
		d[6] = cy*y[6] + cx*x[6]
		d[7] = cy*y[7] + cx*x[7]
		dst, xs, ys = dst[8:], xs[8:], ys[8:]
	}
	for i := range dst {
		dst[i] = cy*ys[i] + cx*xs[i]
	}
}

// ScoreCols fills dst[j] with the SD-score of row off+j read contiguously
// from dimension-major float64 columns (column d starts at cols[d·rows], rows
// being the column stride): the one sweep kernel, for sealed segments and
// the memtable alike. Eight consecutive rows advance together, each
// with a register accumulator carried across the dimensions in ascending
// order — the same operation order as the scalar row loop, so scores are
// bit-identical to it — and every load is sequential, so a sweep runs at
// streaming bandwidth instead of one cache miss per row per dimension.
// off+len(dst) must not exceed rows.
func ScoreCols(dst []float64, cols []float64, rows, off int, q, signed []float64) {
	dims := len(q)
	signed = signed[:dims]
	j := 0
	for ; j+8 <= len(dst); j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		base := off + j
		for d := 0; d < dims; d++ {
			c := cols[base : base+8 : base+8]
			base += rows
			qd, wd := q[d], signed[d]
			s0 += wd * math.Abs(c[0]-qd)
			s1 += wd * math.Abs(c[1]-qd)
			s2 += wd * math.Abs(c[2]-qd)
			s3 += wd * math.Abs(c[3]-qd)
			s4 += wd * math.Abs(c[4]-qd)
			s5 += wd * math.Abs(c[5]-qd)
			s6 += wd * math.Abs(c[6]-qd)
			s7 += wd * math.Abs(c[7]-qd)
		}
		out := dst[j : j+8 : j+8]
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		out[4], out[5], out[6], out[7] = s4, s5, s6, s7
	}
	for ; j < len(dst); j++ {
		var s float64
		for d := 0; d < dims; d++ {
			s += signed[d] * math.Abs(cols[d*rows+off+j]-q[d])
		}
		dst[j] = s
	}
}

// BoxBounds fills dst[b] with an upper bound on the SD-score of every point
// in box b of the n = len(dst) boxes held dimension-major in lo and hi (box b
// spans [lo[d·n+b], hi[d·n+b]] in dimension d, lo ≤ hi, so one box is just
// its own lo and hi): BRS's per-rectangle bound and the zone sweep's
// per-block bound. signed carries the score kernel's weights (+w repulsive,
// −w attractive, 0 ignored). A repulsive term takes the interval's farther
// end from q; an attractive term the distance from q to the interval, 0 when
// q lies inside it. Each dimension is one branch-free pass over every box,
// so terms accumulate in ascending dimension order like ScoreCols', and every
// operation is monotone in the coordinate: a bound is at least the ScoreCols
// score of any row in its box and equals it on a degenerate box (lo == hi).
func BoxBounds(dst, lo, hi, q, signed []float64) {
	n := len(dst)
	clear(dst)
	for d, w := range signed[:len(q)] {
		qd := q[d]
		l, h := lo[d*n:(d+1)*n], hi[d*n:(d+1)*n]
		switch {
		case w > 0: // the farther end: at most one of the two is negative
			for b := range dst {
				dst[b] += w * max(qd-l[b], h[b]-qd)
			}
		case w < 0: // at most one of the two is positive; +0 inside adds nothing
			for b := range dst {
				dst[b] += w * math.Float64frombits(positive(l[b]-qd)|positive(qd-h[b]))
			}
		}
	}
}

// positive returns the bits of x, or of +0 when x is not above 0.
func positive(x float64) uint64 {
	u := math.Float64bits(x)
	return u &^ uint64(int64(u)>>63)
}
