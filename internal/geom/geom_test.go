package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= eps*scale
}

func TestNewAngleRejectsBadWeights(t *testing.T) {
	cases := []struct{ alpha, beta float64 }{
		{-1, 1}, {1, -1}, {0, 0},
		{math.NaN(), 1}, {1, math.NaN()},
		{math.Inf(1), 1}, {1, math.Inf(-1)},
	}
	for _, c := range cases {
		if _, err := NewAngle(c.alpha, c.beta); err == nil {
			t.Errorf("NewAngle(%v, %v): want error, got nil", c.alpha, c.beta)
		}
	}
}

func TestNewAngleNormalizes(t *testing.T) {
	a, err := NewAngle(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(a.Alpha, 0.6) || !approxEq(a.Beta, 0.8) {
		t.Fatalf("NewAngle(3,4) = %+v, want (0.6, 0.8)", a)
	}
	if !approxEq(Scale(3, 4), 5) {
		t.Fatalf("Scale(3,4) = %v, want 5", Scale(3, 4))
	}
}

func TestAngleFromDegreesEndpoints(t *testing.T) {
	a0, err := AngleFromDegrees(0)
	if err != nil || a0.Alpha != 1 || a0.Beta != 0 {
		t.Fatalf("AngleFromDegrees(0) = %+v err=%v, want exact (1,0)", a0, err)
	}
	a90, err := AngleFromDegrees(90)
	if err != nil || a90.Alpha != 0 || a90.Beta != 1 {
		t.Fatalf("AngleFromDegrees(90) = %+v err=%v, want exact (0,1)", a90, err)
	}
	// An indexed projection angle lies in [0°, 90°]; one outside it is
	// refused, not clamped.
	for _, deg := range []float64{-5, -1, 91, 120} {
		if a, err := AngleFromDegrees(deg); err == nil {
			t.Errorf("AngleFromDegrees(%v) = %+v, want an error", deg, a)
		}
	}
	a45 := MustAngle(1, 1)
	if !approxEq(a45.Degrees(), 45) {
		t.Fatalf("MustAngle(1,1).Degrees() = %v, want 45", a45.Degrees())
	}
}

// TestPaperIntroExample checks the worked example after Definition 1:
// with α = β = 1, SD-score(p1, q1) = 3 and SD-score(p3, q2) = 2 for the
// Figure-1 layout (phylogeny = attractive x, habitat = repulsive y).
func TestPaperIntroExample(t *testing.T) {
	// Raw (unnormalized) α = β = 1: scores scale by 1/√2 after
	// normalization, so compare against scaled expectations.
	a := MustAngle(1, 1)
	scale := Scale(1, 1)
	q1 := Point{X: 1, Y: 1}
	p1 := Point{X: 1, Y: 4} // same phylogeny, habitat distance 3
	if got := a.Score(p1, q1) * scale; !approxEq(got, 3) {
		t.Fatalf("SD-score(p1,q1) = %v, want 3", got)
	}
	q2 := Point{X: 5, Y: 1}
	p3 := Point{X: 5, Y: 3}
	if got := a.Score(p3, q2) * scale; !approxEq(got, 2) {
		t.Fatalf("SD-score(p3,q2) = %v, want 2", got)
	}
}

func TestSelectProjectionQuadrants(t *testing.T) {
	q := Point{X: 0, Y: 0}
	cases := []struct {
		p    Point
		want Kind
	}{
		{Point{X: 1, Y: 1}, LLP},   // right of axis, above query
		{Point{X: 1, Y: -1}, LUP},  // right of axis, below query
		{Point{X: -1, Y: 1}, RLP},  // left of axis, above query
		{Point{X: -1, Y: -1}, RUP}, // left of axis, below query
		{Point{X: 0, Y: 0}, LLP},   // boundary: x and y ties go to llp
		{Point{X: 0, Y: -1}, LUP},
	}
	for _, c := range cases {
		if got := SelectProjection(c.p, q); got != c.want {
			t.Errorf("SelectProjection(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{LLP: "llp", RLP: "rlp", LUP: "lup", RUP: "rup"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if !LLP.Lower() || !RLP.Lower() || LUP.Lower() || RUP.Lower() {
		t.Error("Kind.Lower misclassifies")
	}
}

func randomAngle(rng *rand.Rand) Angle {
	switch rng.Intn(5) {
	case 0:
		return Angle{Alpha: 1, Beta: 0} // θ = 0°
	case 1:
		return Angle{Alpha: 0, Beta: 1} // θ = 90°
	default:
		return MustAngle(rng.Float64()+1e-9, rng.Float64()+1e-9)
	}
}

func randomPoint(rng *rand.Rand) Point {
	return Point{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10}
}

// TestClaim2And3ScoreViaProjection: for every configuration, the score
// computed from the selected projection's axis intersection equals the
// directly computed SD-score. This covers Claim 2 (positive scores: the
// projection is the isoline) and Claim 3 (negative scores: the projection
// still carries the score).
func TestClaim2And3ScoreViaProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		a := randomAngle(rng)
		p, q := randomPoint(rng), randomPoint(rng)
		direct := a.Score(p, q)
		viaProj := a.ScoreViaProjection(p, q)
		if !approxEq(direct, viaProj) {
			t.Fatalf("trial %d: angle %+v p=%+v q=%+v: direct %v != viaProjection %v",
				trial, a, p, q, direct, viaProj)
		}
	}
}

// TestClaim1Straddling: whenever q lies between p's two projected points on
// the axis, the score is non-positive — and conversely, a positive score
// implies no straddling.
func TestClaim1Straddling(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20000; trial++ {
		a := randomAngle(rng)
		p, q := randomPoint(rng), randomPoint(rng)
		score := a.Score(p, q)
		straddles := a.StraddlesAxis(p, q)
		if straddles && score > eps {
			t.Fatalf("trial %d: straddling but positive score %v (p=%+v q=%+v angle=%+v)",
				trial, score, p, q, a)
		}
		if !straddles && score < -eps {
			t.Fatalf("trial %d: negative score %v without straddling (p=%+v q=%+v angle=%+v)",
				trial, score, p, q, a)
		}
	}
}

// TestClaim4TopKFromExtremeProjections: the top-k answer for a random query
// is always contained in the union of the k highest lower-projection keys
// and the k lowest upper-projection keys on the query's axis — computed per
// the side-dependent projection selection of Eqn. 6.
func TestClaim4TopKFromExtremeProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		a := randomAngle(rng)
		n := rng.Intn(60) + 5
		k := rng.Intn(n) + 1
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randomPoint(rng)
			pts[i].ID = i
		}
		q := randomPoint(rng)

		// Brute-force top-k by score (IDs, allowing score ties to swap).
		all := make([]scored2, n)
		for i, p := range pts {
			all[i] = scored2{p.ID, a.Score(p, q)}
		}
		// kth best score
		kth := kthLargest(all, k)

		// Candidate set from projections.
		var lower, upper []scored2
		for _, p := range pts {
			kind := SelectProjection(p, q)
			key := a.Key(p, q.X, kind)
			if kind.Lower() {
				lower = append(lower, scored2{p.ID, key})
			} else {
				upper = append(upper, scored2{p.ID, key})
			}
		}
		cand := make(map[int]bool)
		for _, s := range topByKey(lower, k, true) {
			cand[s.id] = true
		}
		for _, s := range topByKey(upper, k, false) {
			cand[s.id] = true
		}
		// Every point scoring strictly above kth must be in the candidates;
		// points tied at kth must have at least k candidates covering them.
		for _, s := range all {
			if s.score > kth+eps && !cand[s.id] {
				t.Fatalf("trial %d: point %d with score %v (kth=%v) missing from projection candidates",
					trial, s.id, s.score, kth)
			}
		}
	}
}

func kthLargest(all []scored2, k int) float64 {
	scoresCopy := make([]float64, len(all))
	for i, s := range all {
		scoresCopy[i] = s.score
	}
	// simple selection: sort descending
	for i := 0; i < k; i++ {
		maxIdx := i
		for j := i + 1; j < len(scoresCopy); j++ {
			if scoresCopy[j] > scoresCopy[maxIdx] {
				maxIdx = j
			}
		}
		scoresCopy[i], scoresCopy[maxIdx] = scoresCopy[maxIdx], scoresCopy[i]
	}
	return scoresCopy[k-1]
}

type scored2 struct {
	id    int
	score float64
}

func topByKey(in []scored2, k int, highest bool) []scored2 {
	out := make([]scored2, len(in))
	copy(out, in)
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if highest && out[j].score > out[best].score {
				best = j
			}
			if !highest && out[j].score < out[best].score {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestKeyMatchesProjectedHeight: for finite θ < 90°, the scaled key equals
// α times the geometric intersection height of the projection ray with the
// axis.
func TestKeyMatchesProjectedHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10000; trial++ {
		a := MustAngle(rng.Float64()+0.05, rng.Float64()+0.05)
		p, q := randomPoint(rng), randomPoint(rng)
		s := a.Beta / a.Alpha // slope tan θ
		dx := math.Abs(p.X - q.X)
		// geometric heights
		lowerY := p.Y - s*dx
		upperY := p.Y + s*dx
		var lowerKind, upperKind Kind
		if p.X >= q.X {
			lowerKind, upperKind = LLP, LUP
		} else {
			lowerKind, upperKind = RLP, RUP
		}
		if got := a.Key(p, q.X, lowerKind); !approxEq(got, a.Alpha*lowerY) {
			t.Fatalf("lower key %v != α·y' %v", got, a.Alpha*lowerY)
		}
		if got := a.Key(p, q.X, upperKind); !approxEq(got, a.Alpha*upperY) {
			t.Fatalf("upper key %v != α·y' %v", got, a.Alpha*upperY)
		}
	}
}

// TestSingleCrossingProperty verifies observation 2 of §4.2 (the basis of
// Claim 6): if p1 scores at least p2 at θ1 and p2 scores at least p1 at
// θ2 > θ1, then p2 scores at least p1 at every θ3 > θ2.
func TestSingleCrossingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 5000; trial++ {
		p1, p2, q := randomPoint(rng), randomPoint(rng), randomPoint(rng)
		d1, d2, d3 := rng.Float64()*90, rng.Float64()*90, rng.Float64()*90
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		if d2 > d3 {
			d2, d3 = d3, d2
			if d1 > d2 {
				d1, d2 = d2, d1
			}
		}
		a1, _ := AngleFromDegrees(d1)
		a2, _ := AngleFromDegrees(d2)
		a3, _ := AngleFromDegrees(d3)
		if a1.Score(p1, q) >= a1.Score(p2, q) && a2.Score(p2, q) >= a2.Score(p1, q) {
			if a3.Score(p2, q) < a3.Score(p1, q)-eps {
				t.Fatalf("single-crossing violated: p1=%+v p2=%+v q=%+v θ=(%v,%v,%v)",
					p1, p2, q, d1, d2, d3)
			}
		}
	}
}

// Quick-check that normalization preserves ranking: for any weights and any
// two points, the normalized score order equals the raw score order.
func TestNormalizationPreservesOrderQuick(t *testing.T) {
	property := func(ax, bx, px1, py1, px2, py2, qx, qy float64) bool {
		alpha := math.Abs(math.Mod(ax, 10)) + 0.01
		beta := math.Abs(math.Mod(bx, 10)) + 0.01
		a := MustAngle(alpha, beta)
		p1 := Point{X: clampT(px1), Y: clampT(py1)}
		p2 := Point{X: clampT(px2), Y: clampT(py2)}
		q := Point{X: clampT(qx), Y: clampT(qy)}
		raw1 := alpha*math.Abs(p1.Y-q.Y) - beta*math.Abs(p1.X-q.X)
		raw2 := alpha*math.Abs(p2.Y-q.Y) - beta*math.Abs(p2.X-q.X)
		n1, n2 := a.Score(p1, q), a.Score(p2, q)
		if raw1 < raw2 && n1 > n2+eps {
			return false
		}
		if raw1 > raw2 && n1 < n2-eps {
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func clampT(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}
