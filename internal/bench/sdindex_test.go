package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline/scan"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topk"
)

// sdCorners are the value corners the SD-Index's differential test draws
// rows and query points from: ties everywhere, subnormal extents, the value
// domain's ends, and the quarter grid of the churn fuzzer's regression seed
// testdata/fuzz/FuzzTopKChurn/89b7ba70eb2254e4 (half the coordinates on
// {0, ¼, ½, ¾}), where exact ties at the k-th rank are common.
var sdCorners = []string{"uniform", "clustered", "all-equal", "denormal", "corners", "grid"}

func sdValues(kind string, rng *rand.Rand) func() float64 {
	switch kind {
	case "clustered":
		centers := []float64{0.1, 0.35, 0.6, 0.9}
		return func() float64 { return centers[rng.Intn(len(centers))] + 0.02*rng.NormFloat64() }
	case "all-equal":
		return func() float64 { return 0.25 }
	case "denormal":
		return func() float64 { return (rng.Float64() - 0.5) * 0x1p-1040 }
	case "corners":
		return func() float64 { return []float64{-1e150, 1e150, rng.Float64()}[rng.Intn(3)] }
	case "grid":
		return func() float64 {
			if rng.Intn(2) == 0 {
				return float64(rng.Intn(4)) / 4
			}
			return rng.Float64()
		}
	}
	return rng.Float64
}

// sdRoleSets are the layouts under test: pairs only, pairs with lone and
// Ignored dimensions, lone lists only (the regression seed's shape, whose
// bounds carry only the lists' pad), and the 2-d subproblem alone.
var sdRoleSets = [][]query.Role{
	{query.Attractive, query.Attractive, query.Attractive, query.Repulsive, query.Repulsive, query.Repulsive},
	{query.Repulsive, query.Attractive, query.Ignored, query.Repulsive, query.Repulsive},
	{query.Repulsive, query.Ignored, query.Repulsive, query.Repulsive},
	{query.Repulsive, query.Attractive},
}

// sdOracle holds the rows an SD-Index should hold, by ID, for the scan.
type sdOracle struct {
	rows    [][]float64
	removed map[int]bool
}

// check asserts that x answers spec exactly like the scan over the live rows:
// the same IDs in the same order, the same scores bit for bit.
func (o *sdOracle) check(t *testing.T, label string, x *sdIndex, spec query.Spec) {
	t.Helper()
	var live [][]float64
	var ids []int
	for id, p := range o.rows {
		if !o.removed[id] {
			live, ids = append(live, p), append(ids, id)
		}
	}
	truth, err := scan.New(live)
	if err != nil {
		t.Fatal(err)
	}
	want, err := truth.TopK(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.TopK(spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, scan %d (spec %+v)", label, len(got), len(want), spec)
	}
	for i, w := range want {
		if got[i].ID != ids[w.ID] || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s rank %d: (%d, %v), scan (%d, %v) (spec %+v)",
				label, i, got[i].ID, got[i].Score, ids[w.ID], w.Score, spec)
		}
	}
}

// sdSpec draws a query: its point from value, weights U(0, 1) with some
// zeros, an active dimension now and then demoted to Ignored, and now and
// then every weight zero, where every row ties at +0.
func sdSpec(rng *rand.Rand, roles []query.Role, value func() float64, k int) query.Spec {
	spec := query.Spec{
		Point:   make([]float64, len(roles)),
		K:       k,
		Roles:   append([]query.Role(nil), roles...),
		Weights: make([]float64, len(roles)),
	}
	zero := rng.Intn(10) == 0
	for d := range spec.Point {
		spec.Point[d] = value()
		switch {
		case zero || rng.Intn(6) == 0:
		case d > 0 && rng.Intn(8) == 0: // dimension 0 stays active: a query needs one
			spec.Roles[d] = query.Ignored
		default:
			spec.Weights[d] = rng.Float64()
		}
	}
	return spec
}

// runSDDifferential builds an SD-Index of tree shape cfg over n rows drawn
// from value, checks queries at k ∈ {1, 5, 50, all}, then churns it with
// §4.3 inserts and removes and checks again.
func runSDDifferential(t *testing.T, label string, rng *rand.Rand, value func() float64, roles []query.Role, n int, cfg topk.Config) {
	t.Helper()
	row := func() []float64 {
		p := make([]float64, len(roles))
		for d := range p {
			p[d] = value()
		}
		return p
	}
	o := &sdOracle{removed: map[int]bool{}}
	for i := 0; i < n; i++ {
		o.rows = append(o.rows, row())
	}
	x, err := newSDIndex(o.rows, roles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := func(phase string) {
		for _, k := range []int{1, 5, 50, len(o.rows)} {
			for qi := 0; qi < 6; qi++ {
				o.check(t, fmt.Sprintf("%s/%s k=%d query %d", label, phase, k, qi), x, sdSpec(rng, roles, value, k))
			}
		}
	}
	queries("built")
	for step := 0; step < n/2; step++ {
		if id := rng.Intn(len(o.rows)); rng.Intn(2) == 0 && !o.removed[id] {
			if !x.Remove(id) {
				t.Fatalf("%s: Remove(%d) refused a live row", label, id)
			}
			o.removed[id] = true
			continue
		}
		p := row()
		id, err := x.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if id != len(o.rows) {
			t.Fatalf("%s: Insert returned ID %d, want %d", label, id, len(o.rows))
		}
		o.rows = append(o.rows, p)
	}
	if x.Remove(-1) || x.Remove(len(o.rows)) {
		t.Fatalf("%s: removed an ID outside the index", label)
	}
	queries("churned")
}

// TestSDIndexMatchesScan is the reproduction SD-Index's differential test:
// on every value corner and layout, before and after an Insert/Remove
// churn, its §5 aggregation answers exactly like the scan.
func TestSDIndexMatchesScan(t *testing.T) {
	for ci, kind := range sdCorners {
		for ri, roles := range sdRoleSets {
			rng := rand.New(rand.NewSource(int64(100*ci + ri)))
			runSDDifferential(t, fmt.Sprintf("%s/%d-d", kind, len(roles)), rng, sdValues(kind, rng), roles, 200, topk.Config{})
		}
	}
	// The aggregation must stop early, or the test would hold of a scan.
	rng := rand.New(rand.NewSource(7))
	data := make([][]float64, 4000)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
	x, err := newSDIndex(data, roles, topk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.TopK(query.Spec{Point: []float64{0.3, 0.7, 0.1, 0.9}, K: 5, Roles: roles, Weights: []float64{0.8, 0.5, 0.3, 0.9}}); err != nil {
		t.Fatal(err)
	}
	if x.fetched == 0 || x.fetched >= len(data) {
		t.Fatalf("%d sorted accesses over %d rows: the aggregation did not prune", x.fetched, len(data))
	}
	// A role flip is refused.
	if _, err := x.TopK(query.Spec{Point: make([]float64, 4), K: 1, Roles: []query.Role{query.Attractive, query.Attractive, query.Repulsive, query.Attractive}, Weights: make([]float64, 4)}); err == nil {
		t.Fatal("role flip accepted")
	}
}

// TestTreeShapes: the §4 tree parameters — fan-out, leaf capacity, indexed
// angles — change how the pair streams descend and how updates split and
// rebuild, never what the index answers.
func TestTreeShapes(t *testing.T) {
	angles := func(degrees ...float64) []geom.Angle {
		out := make([]geom.Angle, len(degrees))
		for i, d := range degrees {
			a, err := geom.AngleFromDegrees(d)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = a
		}
		return out
	}
	for _, shape := range []struct {
		name string
		cfg  topk.Config
	}{
		{"default", topk.Config{}},
		{"branch2", topk.Config{Branching: 2}},
		{"branch32", topk.Config{Branching: 32, LeafCap: 8}},
		{"leaf1", topk.Config{LeafCap: 1}},
		{"angles2", topk.Config{Angles: angles(0, 90)}},
		{"angles9", topk.Config{Angles: angles(0, 11, 22, 33, 45, 56, 67, 79, 90)}},
	} {
		rng := rand.New(rand.NewSource(92))
		roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
		runSDDifferential(t, shape.name, rng, sdValues("grid", rng), roles, 300, shape.cfg)
	}
}
