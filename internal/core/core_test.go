package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline/brs"
	"repro/internal/baseline/pe"
	"repro/internal/baseline/scan"
	"repro/internal/baseline/ta"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topk"
)

const eps = 1e-9

// engineUnderTest is satisfied by every engine in the module.
type engineUnderTest interface {
	TopK(query.Spec) ([]query.Result, error)
}

func randomSpec(rng *rand.Rand, data [][]float64, roles []query.Role) query.Spec {
	dims := len(roles)
	spec := query.Spec{
		Point:   make([]float64, dims),
		K:       rng.Intn(10) + 1,
		Roles:   append([]query.Role(nil), roles...),
		Weights: make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		spec.Point[d] = rng.Float64()*1.4 - 0.2 // mostly inside, sometimes outside [0,1]
		spec.Weights[d] = rng.Float64()
	}
	_ = data
	return spec
}

// randomRoles generates a role vector with at least one active dimension.
func randomRoles(rng *rand.Rand, dims int) []query.Role {
	for {
		roles := make([]query.Role, dims)
		active := 0
		for d := range roles {
			switch rng.Intn(4) {
			case 0:
				roles[d] = query.Ignored
			case 1:
				roles[d] = query.Attractive
				active++
			default:
				roles[d] = query.Repulsive
				active++
			}
		}
		if active > 0 {
			return roles
		}
	}
}

func checkAgainst(t *testing.T, name string, eng engineUnderTest, truth *scan.Engine, spec query.Spec) {
	t.Helper()
	got, err := eng.TopK(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := truth.TopK(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (spec %+v)", name, len(got), len(want), spec)
	}
	for i := range want {
		tol := eps * math.Max(1, math.Abs(want[i].Score))
		if math.Abs(got[i].Score-want[i].Score) > tol {
			t.Fatalf("%s: result %d score %v, want %v (spec roles=%v weights=%v k=%d)",
				name, i, got[i].Score, want[i].Score, spec.Roles, spec.Weights, spec.K)
		}
		// Scores must be consistent with the reported IDs.
		if recomputed := spec.Score(truthData(truth, got[i].ID)); math.Abs(recomputed-got[i].Score) > tol {
			t.Fatalf("%s: result %d reports score %v but point %d scores %v",
				name, i, got[i].Score, got[i].ID, recomputed)
		}
	}
}

// truthData reaches into the scan engine's dataset via a tiny shim: scan
// engines are built over the same slice the test holds, so the test passes
// it explicitly instead. Kept as a package-level variable to avoid capturing
// in every call.
var currentData [][]float64

func truthData(_ *scan.Engine, id int) []float64 { return currentData[id] }

// TestAllEnginesAgreeWithScan is the module's central integration test:
// every engine must produce scan-identical score sequences on randomized
// workloads over all three distributions, dimensionalities 2–8, random
// roles, weights, and k.
func TestAllEnginesAgreeWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dists := []dataset.Distribution{dataset.Uniform, dataset.Correlated, dataset.AntiCorrelated}
	for trial := 0; trial < 25; trial++ {
		dims := 2 + rng.Intn(7)
		n := 50 + rng.Intn(400)
		data := dataset.Generate(dists[trial%3], n, dims, int64(trial))
		currentData = data
		roles := randomRoles(rng, dims)

		truth, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		taEng, err := ta.New(data)
		if err != nil {
			t.Fatal(err)
		}
		brsEng, err := brs.New(data)
		if err != nil {
			t.Fatal(err)
		}
		peEng, err := pe.New(data)
		if err != nil {
			t.Fatal(err)
		}
		// The SD-Index both ways (sweep.go): the default zone-sweeps every
		// segment, and one engine is pinned to pure streaming.
		tree := topk.Config{Branching: 2 + rng.Intn(7)}
		var sdEngs [2]*Engine
		for i, streamOnly := range []bool{false, true} {
			if sdEngs[i], err = New(data, Config{Roles: roles, Tree: tree, RuntimeOptions: RuntimeOptions{StreamOnly: streamOnly}}); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 8; qi++ {
			spec := randomSpec(rng, data, roles)
			checkAgainst(t, "ta", taEng, truth, spec)
			checkAgainst(t, "brs", brsEng, truth, spec)
			checkAgainst(t, "pe", peEng, truth, spec)
			checkAgainst(t, "sd", sdEngs[0], truth, spec)
			checkAgainst(t, "sd-stream", sdEngs[1], truth, spec)
		}
	}
}

// TestTreeShapes: the §4 tree parameters of Config.Tree — fan-out, leaf
// capacity, indexed angles — change how the pair streams descend, never what
// the engine answers. Every shape must agree with the scan, by default
// (which builds no trees: the shape is only carried) and pinned to pure
// streaming.
func TestTreeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	data := dataset.Generate(dataset.Correlated, 300, 4, 2)
	currentData = data
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
	truth, _ := scan.New(data)
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
	shapes := map[string]topk.Config{
		"default":  {},
		"branch32": {Branching: 32, LeafCap: 8},
		"leaf1":    {LeafCap: 1},
		"angles2":  {Angles: angles(0, 90)},
		"angles9":  {Angles: angles(0, 11, 22, 33, 45, 56, 67, 79, 90)},
	}
	for name, tree := range shapes {
		for _, streamOnly := range []bool{false, true} {
			eng, err := New(data, Config{Roles: roles, Tree: tree, RuntimeOptions: RuntimeOptions{StreamOnly: streamOnly}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for qi := 0; qi < 10; qi++ {
				checkAgainst(t, fmt.Sprintf("%s/stream-only=%v", name, streamOnly), eng, truth, randomSpec(rng, data, roles))
			}
		}
	}
}

func TestPairingUnbalancedRoles(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	data := dataset.Generate(dataset.Uniform, 200, 6, 9)
	currentData = data
	truth, _ := scan.New(data)
	// 0..3 attractive dimensions of 6 (the Figure 7i/7j sweep): pairs =
	// min(a, 6-a) under the default in-order zip, and the other 6 - 2a
	// dimensions run alone.
	for a := 0; a <= 3; a++ {
		roles := make([]query.Role, 6)
		for d := range roles {
			if d < a {
				roles[d] = query.Attractive
			} else {
				roles[d] = query.Repulsive
			}
		}
		eng, err := New(data, Config{Roles: roles})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(eng.Pairs()), a; got != want {
			t.Fatalf("a=%d: %d pairs, want %d", a, got, want)
		}
		if got, want := len(eng.layout.lone), 6-2*a; got != want {
			t.Fatalf("a=%d: %d lone dimensions, want %d", a, got, want)
		}
		for qi := 0; qi < 6; qi++ {
			checkAgainst(t, "sd", eng, truth, randomSpec(rng, data, roles))
		}
	}
}

func TestRoleDemotionAndFlip(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 100, 3, 11)
	currentData = data
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive}
	eng, err := New(data, Config{Roles: roles})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := scan.New(data)
	// Demoting an active dimension to Ignored is allowed.
	spec := query.Spec{
		Point:   []float64{0.5, 0.5, 0.5},
		K:       3,
		Roles:   []query.Role{query.Repulsive, query.Ignored, query.Repulsive},
		Weights: []float64{1, 0, 0.5},
	}
	checkAgainst(t, "demoted", eng, truth, spec)
	// Flipping a role is rejected.
	spec.Roles = []query.Role{query.Attractive, query.Ignored, query.Repulsive}
	if _, err := eng.TopK(spec); err == nil {
		t.Fatal("role flip accepted")
	}
}

func TestZeroWeights(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 60, 2, 13)
	currentData = data
	roles := []query.Role{query.Repulsive, query.Attractive}
	eng, err := New(data, Config{Roles: roles})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := scan.New(data)
	// One zero weight: the pair degenerates to a 1D problem (θ = 0° / 90°).
	for _, w := range [][]float64{{1, 0}, {0, 1}} {
		spec := query.Spec{Point: []float64{0.3, 0.7}, K: 5, Roles: roles, Weights: w}
		checkAgainst(t, "zero-weight", eng, truth, spec)
	}
	// All-zero weights: every point ties at score 0.
	spec := query.Spec{Point: []float64{0.3, 0.7}, K: 5, Roles: roles, Weights: []float64{0, 0}}
	res, err := eng.TopK(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("all-zero weights: %d results, want 5", len(res))
	}
	for _, r := range res {
		if r.Score != 0 {
			t.Fatalf("all-zero weights: score %v, want 0", r.Score)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}}
	if _, err := New(data, Config{Roles: []query.Role{query.Repulsive}}); err == nil {
		t.Error("roles length mismatch accepted")
	}
	if _, err := New(data, Config{Roles: []query.Role{query.Repulsive, query.Role(77)}}); err == nil {
		t.Error("unknown role accepted")
	}
	if _, err := New([][]float64{{1, math.NaN()}}, Config{Roles: []query.Role{query.Repulsive, query.Attractive}}); err == nil {
		t.Error("NaN coordinate accepted")
	}
	if _, err := New([][]float64{{1, 2}, {3}}, Config{Roles: []query.Role{query.Repulsive, query.Attractive}}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestEmptyDataset(t *testing.T) {
	eng, err := New(nil, Config{Roles: nil})
	if err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{Point: nil, K: 1, Roles: nil, Weights: nil}
	if _, err := eng.TopK(spec); err == nil {
		t.Fatal("spec with no dims accepted")
	}
}

func TestInsertRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	data := dataset.Generate(dataset.Uniform, 80, 4, 17)
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
	eng, err := New(data, Config{Roles: roles})
	if err != nil {
		t.Fatal(err)
	}
	live := map[int][]float64{}
	for i, p := range data {
		live[i] = p
	}
	for step := 0; step < 120; step++ {
		if rng.Intn(3) == 0 && len(live) > 5 {
			var victim int
			for id := range live {
				victim = id
				break
			}
			if !eng.Remove(victim) {
				t.Fatalf("Remove(%d) = false", victim)
			}
			delete(live, victim)
		} else {
			p := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			id, err := eng.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = p
		}
	}
	if eng.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", eng.Len(), len(live))
	}
	// Compare against a scan over the live rows.
	var liveData [][]float64
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	for _, id := range ids {
		liveData = append(liveData, live[id])
	}
	truth, _ := scan.New(liveData)
	for qi := 0; qi < 10; qi++ {
		spec := randomSpec(rng, liveData, roles)
		got, err := eng.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("after churn: %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > eps*math.Max(1, math.Abs(want[i].Score)) {
				t.Fatalf("after churn result %d: %v, want %v", i, got[i].Score, want[i].Score)
			}
			if !eng.Alive(got[i].ID) {
				t.Fatalf("tombstoned point %d returned", got[i].ID)
			}
		}
	}
	if eng.Remove(eng.snap.Load().total + 5) {
		t.Fatal("removed an out-of-range id")
	}
}

func TestBytesPositive(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 500, 4, 19)
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Repulsive}
	eng, err := New(data, Config{Roles: roles})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Bytes() <= 0 {
		t.Fatal("Bytes() not positive")
	}
}

// TestBytesEstimate pins the resident-size formula layer by layer: every
// sealed segment contributes its index structures (trees, lists),
// its column block, its global-ID map and that map's inverse, its block
// boxes, and its tombstone bitset; the
// memtable contributes its ID, row, and dead arrays; the engine adds the
// per-dimension extrema. A drifting estimate silently breaks capacity
// planning.
func TestBytesEstimate(t *testing.T) {
	const n, dims = 500, 4
	data := dataset.Generate(dataset.Uniform, n, dims, 19)
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Repulsive}
	// Stream-pinned so the segment is indexed at all: the default seals
	// without structures (TestSealIndexesBySize).
	eng, err := New(data, Config{Roles: roles, RuntimeOptions: RuntimeOptions{DisableCompaction: true, StreamOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	perLayer := func(sn *snapshot) (structures, want int) {
		for i, seg := range sn.segs {
			segStruct := 0
			for _, tr := range seg.trees {
				segStruct += tr.Bytes()
			}
			for _, l := range seg.lists {
				segStruct += l.Len() * 12
			}
			structures += segStruct
			want += segStruct
			want += 8 * len(seg.cols)    // dimension-major column block
			want += 4 * len(seg.ids)     // global-ID map
			want += 4 * len(seg.byID)    // its inverse, ID rank → local row
			want += 8 * len(seg.boxes)   // block boxes
			want += 8 * len(sn.tombs[i]) // tombstone bitset words
		}
		want += 4 * len(sn.memIDs)        // memtable IDs
		want += 8 * dims * len(sn.memIDs) // memtable rows
		want += 8 * len(sn.memDead)       // memtable tombstone words
		want += 8 * 2 * dims              // minVal + maxVal
		return structures, want
	}
	structures, want := perLayer(eng.snap.Load())
	if got := eng.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d (structures %d)", got, want, structures)
	}
	// The dataset-side arrays must actually be counted: the estimate has to
	// exceed the index structures alone by at least the flat copy.
	if got := eng.Bytes(); got < structures+8*n*dims {
		t.Fatalf("Bytes() = %d undercounts the flat copy (structures alone: %d)", got, structures)
	}
	// Inserts land in the memtable: the estimate grows by at least the
	// appended row and keeps matching the per-layer formula.
	before := eng.Bytes()
	if _, err := eng.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Bytes(); got < before+8*dims {
		t.Fatalf("Bytes() after Insert = %d, want ≥ %d", got, before+8*dims)
	}
	if _, want := perLayer(eng.snap.Load()); eng.Bytes() != want {
		t.Fatalf("Bytes() after Insert = %d, per-layer formula says %d", eng.Bytes(), want)
	}
	// Removes add tombstone words; compaction folds every layer into one
	// sealed segment and the formula still holds exactly.
	if !eng.Remove(3) {
		t.Fatal("Remove(3) = false")
	}
	if _, want := perLayer(eng.snap.Load()); eng.Bytes() != want {
		t.Fatalf("Bytes() after Remove = %d, per-layer formula says %d", eng.Bytes(), want)
	}
	eng.Compact()
	if segs, mem := eng.Segments(); segs != 1 || mem != 0 {
		t.Fatalf("after Compact: %d segments, %d memtable rows", segs, mem)
	}
	if _, want := perLayer(eng.snap.Load()); eng.Bytes() != want {
		t.Fatalf("Bytes() after Compact = %d, per-layer formula says %d", eng.Bytes(), want)
	}
}

func TestKLargerThanDataset(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 6, 2, 23)
	currentData = data
	roles := []query.Role{query.Repulsive, query.Attractive}
	eng, _ := New(data, Config{Roles: roles})
	truth, _ := scan.New(data)
	spec := query.Spec{Point: []float64{0.5, 0.5}, K: 50, Roles: roles, Weights: []float64{1, 1}}
	checkAgainst(t, "k>n", eng, truth, spec)
}
