// Scheduler and plan tests: the bound-driven schedule is a choice of cost,
// not of result — answers must stay byte-identical across every segment
// split, layout and plan, streamed or swept (and hence to the scan oracle). Plan
// derivation must refuse role flips and answer every shape exactly.
package sdquery_test

import (
	"math/rand"
	"slices"
	"testing"

	sdquery "repro"
	"repro/internal/dataset"
)

// TestSchedulerEquivalenceProperty drives random specs through the same
// dataset under every segment split × layout × plan combination and
// requires byte-identical answers. This is the re-proof of the
// prune-at-first-emission argument for non-uniform access order, run as a
// property: a point's first emission is bounded by every sibling frontier
// regardless of the order frontiers were advanced in, so no interleaving of
// segments, subproblems, streams and sweeps may change what is returned.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(400)
		dims := 1 + rng.Intn(6)
		dist := []dataset.Distribution{dataset.Uniform, dataset.Correlated, dataset.AntiCorrelated}[trial%3]
		data := dataset.Generate(dist, n, dims, int64(trial))
		// Quantize half the trials so exact score ties are common — the
		// regime where a scheduling difference would first leak into
		// answers through the ID tie-break.
		if trial%2 == 0 {
			for _, row := range data {
				for d := range row {
					row[d] = float64(int(row[d]*4)) / 4
				}
			}
		}
		roles := make([]sdquery.Role, dims)
		active := false
		for d := range roles {
			roles[d] = sdquery.Role(rng.Intn(3))
			active = active || roles[d] != sdquery.Ignored
		}
		if !active {
			roles[rng.Intn(dims)] = sdquery.Repulsive
		}

		type variant struct {
			name string
			eng  sdquery.Engine
		}
		var variants []variant
		for _, v := range []struct {
			name  string
			build builder
			opts  []sdquery.SDOption
		}{
			{"default", newSDIndex, nil},
			// The layout picks which trees exist, so which frontiers the
			// scheduler interleaves; a loaded file is the only way to bind one
			// other than the in-order zip (loadPairing).
			{"by-correlation", loadPairing(2), nil},
			{"none/stream-only", loadPairing(4), []sdquery.SDOption{sdquery.WithStreamOnly()}},
			// How the rows are split into segments is a scheduling choice too:
			// the scheduler interleaves every segment's frontiers in one loop,
			// and that must not leak into answers. WithShards forces real
			// multi-segment stacks on these tiny datasets.
			{"segmented", newSDIndex, []sdquery.SDOption{sdquery.WithShards(4)}},
			{"segmented/stream-only", newSDIndex, []sdquery.SDOption{
				sdquery.WithShards(7),
				sdquery.WithStreamOnly(),
			}},
			// Sweep or stream is one more choice of cost: the default
			// (variant 0) zone-sweeps every segment, so pure streaming is
			// forced explicitly.
			{"stream-only", newSDIndex, []sdquery.SDOption{sdquery.WithStreamOnly()}},
		} {
			eng, err := v.build(data, roles, v.opts...)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			variants = append(variants, variant{v.name, eng})
		}

		for qi := 0; qi < 12; qi++ {
			q := sdquery.Query{
				Point:   make([]float64, dims),
				K:       1 + rng.Intn(n+2),
				Roles:   append([]sdquery.Role(nil), roles...),
				Weights: make([]float64, dims),
			}
			for d := 0; d < dims; d++ {
				q.Point[d] = float64(rng.Intn(9)) / 8
				switch rng.Intn(4) {
				case 0:
					q.Weights[d] = 0
				case 1:
					q.Weights[d] = 1
				default:
					q.Weights[d] = rng.Float64()
				}
			}
			want, err := variants[0].eng.TopK(q)
			if err != nil {
				t.Fatalf("trial %d query %d %s: %v", trial, qi, variants[0].name, err)
			}
			for _, v := range variants[1:] {
				got, err := v.eng.TopK(q)
				if err != nil {
					t.Fatalf("trial %d query %d %s: %v", trial, qi, v.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d query %d: %s returned %d results, %s returned %d\nq=%+v",
						trial, qi, v.name, len(got), variants[0].name, len(want), q)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d query %d rank %d: %s got %+v, %s got %+v\nq=%+v",
							trial, qi, i, v.name, got[i], variants[0].name, want[i], q)
					}
				}
			}
		}
	}
}

// TestPlanShapes pins plan derivation across shapes: a role flip is refused
// on every repetition, and a 24-dimension shape (every third dimension
// Ignored) answers exactly like the scan.
func TestPlanShapes(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 500, 4, 11)
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	idx, err := sdquery.NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	bad := sdquery.Query{
		Point:   []float64{0.1, 0.2, 0.3, 0.4},
		K:       3,
		Roles:   []sdquery.Role{sdquery.Attractive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive},
		Weights: []float64{1, 0.5, 0.25, 2},
	}
	for i := 0; i < 2; i++ {
		if _, _, err := idx.TopKWithStats(bad); err == nil {
			t.Fatalf("role flip accepted (attempt %d)", i+1)
		}
	}

	const wide = 24
	wideRoles := make([]sdquery.Role, wide)
	for d := range wideRoles {
		wideRoles[d] = []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Ignored}[d%3]
	}
	wideData := dataset.Generate(dataset.Uniform, 3_000, wide, 12)
	wideIdx, err := sdquery.NewSDIndex(wideData, wideRoles)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := sdquery.NewScan(wideData)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	wq := sdquery.Query{Point: make([]float64, wide), K: 10, Roles: wideRoles, Weights: make([]float64, wide)}
	for i := 0; i < 2; i++ {
		for d := range wq.Point {
			wq.Point[d], wq.Weights[d] = rng.Float64(), rng.Float64()
		}
		got, err := wideIdx.TopK(wq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.TopK(wq)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, scan %d", i, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("query %d rank %d: %+v, scan %+v", i, r, got[r], want[r])
			}
		}
	}
}

// TestSegmentedStats: on a WithShards index the stats surface sums every
// segment's work, and the stats path answers exactly like the fast path and
// the scan.
func TestSegmentedStats(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 4_000, 4, 13)
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	idx, err := sdquery.NewShardedIndex(data, roles, sdquery.WithShards(4), sdquery.WithStreamOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := sdquery.Query{
		Point:   []float64{0.3, 0.7, 0.1, 0.9},
		K:       7,
		Roles:   roles,
		Weights: []float64{0.8, 0.5, 0.3, 0.9},
	}
	res, st, err := idx.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched <= 0 || st.Scored <= 0 || st.Rounds <= 0 {
		t.Fatalf("segment stats not aggregated: %+v", st)
	}
	if st.Segments != 4 || st.Subproblems < st.Segments {
		t.Fatalf("Segments %d, Subproblems %d; want 4 segments with at least a subproblem each", st.Segments, st.Subproblems)
	}
	scan, err := sdquery.NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := idx.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) || len(fast) != len(want) {
		t.Fatalf("stats path returned %d results, fast path %d, scan %d", len(res), len(fast), len(want))
	}
	for i := range want {
		if res[i] != want[i] || fast[i] != want[i] {
			t.Fatalf("rank %d: stats path %+v, fast path %+v, scan %+v", i, res[i], fast[i], want[i])
		}
	}

	// The planning default sweeps these 1000-row segments outright: the
	// sweep counters sum across segments like the rest. Each segment is 8
	// blocks, every one bounded; the skipped ones settle their rows unscored.
	planned, err := sdquery.NewShardedIndex(data, roles, sdquery.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer planned.Close()
	pres, ps, err := planned.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if ps.SweptSegments != 4 || ps.Swept != len(data) || ps.Fetched != 0 || ps.BlocksBounded != 4*8 ||
		ps.Scored == 0 || ps.Scored > ps.Swept || (ps.Scored < ps.Swept) != (ps.BlocksSkipped > 0) {
		t.Fatalf("segment sweep stats not aggregated: %+v", ps)
	}
	for i := range want {
		if pres[i] != want[i] {
			t.Fatalf("planned answer diverges at rank %d: %+v vs %+v", i, pres[i], want[i])
		}
	}
}

// servedWorkload is the repository benchmark's served shape at a test's
// size: n rows of 6-d data drawn from 16 Gaussian clusters (σ = 0.05,
// clipped to [0, 1]) under roles aaarrr, and q queries with point and
// weights U(0,1), one in four with two weights zeroed, k ∈ {1, 5, 50} at
// shares 25/50/25.
func servedWorkload(n, q int, seed int64) ([][]float64, []sdquery.Role, []sdquery.Query) {
	const dims = 6
	rng := rand.New(rand.NewSource(seed))
	var centres [16][dims]float64
	for c := range centres {
		for d := range centres[c] {
			centres[c][d] = rng.Float64()
		}
	}
	data := make([][]float64, n)
	for i := range data {
		c := &centres[rng.Intn(len(centres))]
		data[i] = make([]float64, dims)
		for d := range data[i] {
			data[i][d] = min(1, max(0, c[d]+0.05*rng.NormFloat64()))
		}
	}
	roles := []sdquery.Role{
		sdquery.Attractive, sdquery.Attractive, sdquery.Attractive,
		sdquery.Repulsive, sdquery.Repulsive, sdquery.Repulsive,
	}
	queries := make([]sdquery.Query, q)
	for i := range queries {
		qq := sdquery.Query{Point: make([]float64, dims), K: 5, Roles: roles, Weights: make([]float64, dims)}
		for d := 0; d < dims; d++ {
			qq.Point[d], qq.Weights[d] = rng.Float64(), rng.Float64()
		}
		if rng.Intn(4) == 0 {
			a := rng.Intn(dims)
			b := (a + 1 + rng.Intn(dims-1)) % dims
			qq.Weights[a], qq.Weights[b] = 0, 0
		}
		switch rng.Intn(4) {
		case 0:
			qq.K = 1
		case 3:
			qq.K = 50
		}
		queries[i] = qq
	}
	return data, roles, queries
}

// TestStatsDeterministicServed: every query runs on its caller's goroutine,
// so its work counters are a pure function of the query and the snapshot.
// On the served configuration — four zone-swept segments of benchmark-shaped
// rows — and pinned to streaming, NewShardedIndex, which adds WithWorkers,
// reports exactly the Stats NewSDIndex does, field for field, on every
// repetition.
func TestStatsDeterministicServed(t *testing.T) {
	data, roles, queries := servedWorkload(20_000, 200, 27)
	for _, stream := range []bool{false, true} {
		opts := []sdquery.SDOption{sdquery.WithShards(4)}
		if stream {
			opts = append(opts, sdquery.WithStreamOnly())
		}
		statsDeterministic(t, data, roles, queries, stream, opts)
	}
}

// statsDeterministic is TestStatsDeterministicServed on one configuration:
// streams must have fetched, sweeps skipped blocks.
func statsDeterministic(t *testing.T, data [][]float64, roles []sdquery.Role, queries []sdquery.Query, stream bool, opts []sdquery.SDOption) {
	t.Helper()
	sharded, err := sdquery.NewShardedIndex(data, roles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sdquery.NewSDIndex(data, roles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fetched, skipped := 0, 0
	for rep := 0; rep < 3; rep++ {
		for i, q := range queries {
			got, gst, err := sharded.TopKWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := plain.TopKWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			if gst != wst {
				t.Fatalf("repetition %d query %d: sharded stats %+v, plain %+v", rep, i, gst, wst)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("repetition %d query %d: answers differ\n%v\n%v", rep, i, got, want)
			}
			fetched += gst.Fetched
			skipped += gst.BlocksSkipped
		}
	}
	if stream && fetched == 0 {
		t.Fatal("no query streamed: the workload no longer reaches the scheduler")
	}
	if !stream && (fetched != 0 || skipped == 0) {
		t.Fatalf("default: %d sorted accesses and %d blocks skipped, want none and some", fetched, skipped)
	}
}
