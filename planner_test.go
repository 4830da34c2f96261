// Sweep-or-stream planner tests: the planner is a pure performance feature —
// answers are pinned byte-identical by the differential suites — so what is
// pinned here is the choice itself: that mid-stream bail-outs really happen
// (and lose nothing), that the work a query does is a function of the query
// and the snapshot alone, and that the planner never pays much more than the
// cheaper of its two plans.
package sdquery

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// plannerData draws the three data shapes the planner is held to: uniform,
// 16 tight Gaussian clusters (the prune line cuts less deep, streams run
// long), and uniform snapped to an 8-step grid (plateaus of tied
// contributions, where descent rates read zero).
func plannerData(shape string, n, dims int, seed int64) [][]float64 {
	if shape == "clustered" {
		return clusteredData(n, dims, seed)
	}
	data := dataset.Generate(dataset.Uniform, n, dims, seed)
	if shape == "quantized" {
		for _, row := range data {
			for d := range row {
				row[d] = math.Floor(row[d]*8) / 8
			}
		}
	}
	return data
}

func plannerQueries(n int, roles []Role, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		q := Query{
			Point:   make([]float64, len(roles)),
			K:       []int{1, 5, 50}[i%3],
			Roles:   roles,
			Weights: make([]float64, len(roles)),
		}
		for d := range roles {
			q.Point[d] = float64(rng.Intn(17)) / 16
			q.Weights[d] = rng.Float64()
		}
		if i%4 == 3 { // a different plan shape: fewer streams to probe
			q.Weights[rng.Intn(len(roles))] = 0
		}
		out[i] = q
	}
	return out
}

func alternatingRoles(dims int) []Role {
	roles := make([]Role, dims)
	for d := range roles {
		roles[d] = []Role{Repulsive, Attractive}[d%2]
	}
	return roles
}

// TestPlannerBailoutAfterAdds pins the hardest hand-over: a segment's streams
// have already scored points into the collector when the planner retires them
// into a sweep. The sweep must skip exactly the settled rows — a row added
// twice would surface as a duplicate, a row skipped wrongly as a lost tie at
// the k-th rank — so the data is quantized (every rank is a tie group) and a
// small access cost makes bail-outs happen on 600 rows.
func TestPlannerBailoutAfterAdds(t *testing.T) {
	roles := alternatingRoles(4)
	data := plannerData("quantized", 600, 4, 3)
	oracle, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewSDIndex(data, roles, WithAccessCost(8))
	if err != nil {
		t.Fatal(err)
	}
	handovers := 0
	for qi, q := range plannerQueries(60, roles, 4) {
		got, st, err := idx.TopKWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "bail-out", got, want)
		if st.Scored-st.Swept > st.Fetched {
			t.Fatalf("query %d: %d points scored by random access from %d sorted accesses: %+v",
				qi, st.Scored-st.Swept, st.Fetched, st)
		}
		if st.SweptSegments > 0 && st.Fetched > 0 {
			// Streams scored points, then the segment was swept: the index
			// is one segment and no memtable, so the first row its streams
			// surface meets an empty collector and is scored.
			handovers++
		}
		// Same query, same snapshot: the same choice and the same work.
		_, again, err := idx.TopKWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if again != st {
			t.Fatalf("query %d: stats differ between identical runs:\n%+v\n%+v", qi, st, again)
		}
	}
	if handovers < 10 {
		t.Fatalf("only %d of 60 queries bailed out after scoring points; the scenario is not exercised", handovers)
	}
}

// TestPlannerBoundedRegret holds the planner to its cost contract in its own
// work units — a sorted access costs the access cost, a swept row costs 1:
// on every query, what the planning engine spent is at most twice what the
// cheaper of the two pure plans spends, plus one probe of the plan's streams.
// The pure plans are measured, not modelled: the same query on a
// stream-pinned engine and on a sweep-only engine over the same rows.
func TestPlannerBoundedRegret(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dozen 20k-row indexes")
	}
	for _, shape := range []string{"uniform", "clustered", "quantized"} {
		for _, dims := range []int{2, 6} {
			for _, n := range []int{3_000, 20_000} {
				roles := alternatingRoles(dims)
				data := plannerData(shape, n, dims, int64(n+dims))
				build := func(opts ...SDOption) *SDIndex {
					idx, err := NewSDIndex(data, roles, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return idx
				}
				stream := build(WithStreamOnly())
				sweep := build(WithAccessCost(SweepOnly))
				for _, cost := range []int{core.DefaultAccessCost, 8} {
					planned := build(WithAccessCost(cost))
					for qi, q := range plannerQueries(24, roles, int64(dims)) {
						want, ss, err := stream.TopKWithStats(q)
						if err != nil {
							t.Fatal(err)
						}
						_, sw, err := sweep.TopKWithStats(q)
						if err != nil {
							t.Fatal(err)
						}
						got, ps, err := planned.TopKWithStats(q)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, "planned vs stream", got, want)
						spent := ps.Fetched*cost + ps.Swept
						probe := ss.Subproblems * core.RateWindow * cost
						if limit := 2*min(ss.Fetched*cost, sw.Swept) + probe; spent > limit {
							t.Errorf("%s d=%d n=%d cost=%d query %d (k=%d): spent %d work units (%d fetched, %d swept); "+
								"stream-only %d, sweep-only %d, probe %d: limit %d",
								shape, dims, n, cost, qi, q.K, spent, ps.Fetched, ps.Swept,
								ss.Fetched*cost, sw.Swept, probe, limit)
						}
					}
				}
			}
		}
	}
}
