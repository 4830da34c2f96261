// Package enginetest is the reusable cross-engine differential test
// harness: every engine in the module is validated by exact agreement with
// an exhaustive sequential scan, the oracle the paper itself uses (§6) —
// the standard strategy for non-monotonic ranking engines, where no simpler
// invariant certifies an answer.
//
// The harness feeds each engine a table of randomized workloads (seeded
// RNG; varied dataset sizes, dimensionalities, role sets, weights, and k;
// quantized coordinates that force duplicate scores; degenerate
// all-attractive and all-repulsive role sets) and checks every answer
// against the oracle recomputed from first principles. Engines that promise
// deterministic ascending-ID tie-breaking (scan, SDIndex, TA) must be
// byte-identical to the oracle; the rest (BRS, PE) must return the
// exact top-k score multiset with every claimed score verified by
// rescoring. Engines exposing Insert/Remove are additionally exercised
// through a randomized update phase with the oracle tracking live rows
// and a purge phase that removes rows wholesale (tombstone-heavy segments,
// wholly dead segments, finally an empty index), and engines exposing
// Snapshot are held to snapshot isolation: views pinned mid-stream are
// re-queried after every later mutation against the oracle frozen at their
// acquisition point.
package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	sdquery "repro"
)

// Factory names an engine construction under test.
type Factory struct {
	// Name labels the subtests.
	Name string
	// New builds the engine over the dataset with the given build-time
	// roles.
	New func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error)
	// Deterministic engines promise the oracle's exact answer — ties
	// broken by ascending dataset ID. Non-deterministic engines may
	// resolve ties at the k-th rank differently and are held to
	// score-exact agreement instead.
	Deterministic bool
	// SkipUpdates leaves the update phase out even when the engine
	// implements Insert/Remove.
	SkipUpdates bool
}

// updatable is SDIndex's update surface.
type updatable interface {
	Insert(p []float64) (int, error)
	Remove(id int) bool
}

// snapshotOf acquires an engine's snapshot when it offers one.
func snapshotOf(eng sdquery.Engine) *sdquery.Snapshot {
	if e, ok := eng.(interface{ Snapshot() *sdquery.Snapshot }); ok {
		return e.Snapshot()
	}
	return nil
}

// workload is one randomized dataset plus the query mix run against it.
type workload struct {
	name  string
	data  [][]float64
	roles []sdquery.Role
	seed  int64
}

// workloads builds the deterministic table every factory runs through.
func workloads() []workload {
	var out []workload
	add := func(name string, n, dims int, quantized bool, roles []sdquery.Role, seed int64) {
		out = append(out, workload{
			name:  fmt.Sprintf("%s/n=%d/d=%d", name, n, dims),
			data:  genData(n, dims, quantized, seed),
			roles: roles,
			seed:  seed,
		})
	}

	// Degenerate role sets: every dimension attractive, every dimension
	// repulsive, and a single dimension of each kind.
	add("all-attractive", 80, 3, true, rolesOf("AAA"), 1)
	add("all-repulsive", 80, 3, true, rolesOf("RRR"), 2)
	add("single-attractive", 40, 1, true, rolesOf("A"), 3)
	add("single-repulsive", 40, 1, false, rolesOf("R"), 4)
	add("ignored-mixed", 90, 4, true, rolesOf("IRAI"), 5)

	// Randomized mixes over sizes, dimensionalities, and tie density.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 14; i++ {
		n := 1 + rng.Intn(300)
		dims := 1 + rng.Intn(6)
		roles := make([]sdquery.Role, dims)
		active := false
		for d := range roles {
			roles[d] = sdquery.Role(rng.Intn(3)) // Ignored / Attractive / Repulsive
			active = active || roles[d] != sdquery.Ignored
		}
		if !active {
			roles[rng.Intn(dims)] = sdquery.Repulsive
		}
		quantized := i%2 == 0 // half the workloads force duplicate scores
		add("random", n, dims, quantized, roles, int64(100+i))
	}
	return out
}

func rolesOf(s string) []sdquery.Role {
	roles := make([]sdquery.Role, len(s))
	for i, c := range s {
		switch c {
		case 'A':
			roles[i] = sdquery.Attractive
		case 'R':
			roles[i] = sdquery.Repulsive
		default:
			roles[i] = sdquery.Ignored
		}
	}
	return roles
}

// genData draws n×dims coordinates; quantized sets snap to a 4-step grid so
// distinct rows collide on exact SD-scores.
func genData(n, dims int, quantized bool, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, dims)
		for d := range row {
			if quantized {
				row[d] = float64(rng.Intn(4)) / 4
			} else {
				row[d] = rng.Float64()
			}
		}
		data[i] = row
	}
	return data
}

// queries draws the query mix for a workload: varied k (including 1, the
// full dataset, and beyond it), zero and duplicate weights, and occasional
// demotion of active dimensions to Ignored.
func queries(wl workload, count int) []sdquery.Query {
	rng := rand.New(rand.NewSource(wl.seed * 31))
	dims := len(wl.roles)
	var active []int
	for d, r := range wl.roles {
		if r != sdquery.Ignored {
			active = append(active, d)
		}
	}
	out := make([]sdquery.Query, 0, count)
	for i := 0; i < count; i++ {
		q := sdquery.Query{
			Point:   make([]float64, dims),
			Roles:   append([]sdquery.Role(nil), wl.roles...),
			Weights: make([]float64, dims),
		}
		switch i {
		case 0:
			q.K = 1
		case 1:
			q.K = len(wl.data)
		case 2:
			q.K = len(wl.data) + 3
		default:
			q.K = 1 + rng.Intn(len(wl.data)+2)
		}
		for d := 0; d < dims; d++ {
			q.Point[d] = float64(rng.Intn(5)) / 4
			switch rng.Intn(4) {
			case 0:
				q.Weights[d] = 0
			case 1:
				q.Weights[d] = 1 // duplicate weights across dimensions
			default:
				q.Weights[d] = rng.Float64()
			}
		}
		// Demote a random active dimension, keeping at least one active.
		if len(active) > 1 && rng.Intn(3) == 0 {
			q.Roles[active[rng.Intn(len(active))]] = sdquery.Ignored
		}
		out = append(out, q)
	}
	return out
}

// oracle is the exhaustive reference: every live row scored from first
// principles, ordered by score descending then ID ascending, truncated to k.
func oracle(data [][]float64, dead []bool, q sdquery.Query) []sdquery.Result {
	all := make([]sdquery.Result, 0, len(data))
	for id, p := range data {
		if dead != nil && dead[id] {
			continue
		}
		all = append(all, sdquery.Result{ID: id, Score: q.Score(p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

// check asserts one answer against the oracle. Deterministic engines must
// match byte for byte. All engines must return the oracle's exact score
// sequence, rescore-verified IDs, and no duplicates — which together pin
// the answer set everywhere except inside the k-th rank's tie group.
func check(t *testing.T, q sdquery.Query, data [][]float64, dead []bool, got []sdquery.Result, deterministic bool) {
	t.Helper()
	want := oracle(data, dead, q)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if seen[r.ID] {
			t.Fatalf("rank %d: duplicate ID %d in %v", i, r.ID, got)
		}
		seen[r.ID] = true
		if r.ID < 0 || r.ID >= len(data) || (dead != nil && dead[r.ID]) {
			t.Fatalf("rank %d: ID %d is not a live row", i, r.ID)
		}
		if exact := q.Score(data[r.ID]); r.Score != exact {
			t.Fatalf("rank %d: ID %d reported score %v, rescores to %v", i, r.ID, r.Score, exact)
		}
		if r.Score != want[i].Score {
			t.Fatalf("rank %d: score %v, oracle has %v\ngot  %v\nwant %v", i, r.Score, want[i].Score, got, want)
		}
		if deterministic && r.ID != want[i].ID {
			t.Fatalf("rank %d: ID %d, oracle has %d (ascending-ID tie-break)\ngot  %v\nwant %v",
				i, r.ID, want[i].ID, got, want)
		}
	}
}

// Run drives the factory through every workload. Each workload is a subtest
// so failures name the offending configuration and seed.
func Run(t *testing.T, f Factory) {
	for _, wl := range workloads() {
		t.Run(wl.name, func(t *testing.T) {
			eng, err := f.New(wl.data, wl.roles)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if c, ok := eng.(interface{ Close() }); ok {
				defer c.Close()
			}
			if eng.Len() != len(wl.data) {
				t.Fatalf("Len = %d, want %d", eng.Len(), len(wl.data))
			}
			for qi, q := range queries(wl, 8) {
				got, err := eng.TopK(q)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				check(t, q, wl.data, nil, got, f.Deterministic)
			}
			if up, ok := eng.(updatable); ok && !f.SkipUpdates {
				runUpdates(t, f, wl, eng, up)
			}
		})
	}
}

// runUpdates interleaves inserts, removes, and differential queries,
// mirroring the live set for the oracle. Engines that expose snapshots are
// additionally held to snapshot isolation: snapshots taken mid-stream are
// re-queried after every later mutation and must keep answering
// byte-identically to the oracle frozen at their acquisition point, no
// matter how much insert/remove churn (and, for segment engines, background
// compaction) has happened since.
func runUpdates(t *testing.T, f Factory, wl workload, eng sdquery.Engine, up updatable) {
	t.Helper()
	rng := rand.New(rand.NewSource(wl.seed * 7))
	mirror := append([][]float64(nil), wl.data...)
	dead := make([]bool, len(mirror))
	dims := len(wl.roles)

	// Epoch discipline, for engines that expose it (the serve layer's result
	// cache keys on these invariants): the epoch never moves backwards, and
	// every mutation strictly advances it. Queries and no-op removes must
	// not regress it either — though background compaction may legitimately
	// advance it at any time, so only monotonicity is asserted there.
	ep, hasEpoch := eng.(interface{ Epoch() uint64 })
	var lastEpoch uint64
	if hasEpoch {
		lastEpoch = ep.Epoch()
	}
	checkEpoch := func(step int, mutated bool) {
		if !hasEpoch {
			return
		}
		now := ep.Epoch()
		if now < lastEpoch {
			t.Fatalf("step %d: epoch went backwards: %d -> %d", step, lastEpoch, now)
		}
		if mutated && now == lastEpoch {
			t.Fatalf("step %d: mutation did not advance the epoch (still %d)", step, now)
		}
		lastEpoch = now
	}

	// One frozen view plus the oracle state it was taken against; re-taken
	// at a few fixed steps so isolation is tested across varying amounts of
	// subsequent churn.
	type frozen struct {
		view   *sdquery.Snapshot
		mirror [][]float64
		dead   []bool
		step   int
	}
	var snaps []frozen
	takeSnapshot := func(step int) {
		if v := snapshotOf(eng); v != nil {
			snaps = append(snaps, frozen{
				view:   v,
				mirror: append([][]float64(nil), mirror...),
				dead:   append([]bool(nil), dead...),
				step:   step,
			})
		}
	}
	checkSnapshots := func(step int) {
		for _, fr := range snaps {
			if got := fr.view.Len(); got != liveCount(fr.dead) {
				t.Fatalf("step %d: snapshot from step %d: Len = %d, frozen oracle has %d",
					step, fr.step, got, liveCount(fr.dead))
			}
			for _, q := range queries(wl, 1) {
				got, err := fr.view.TopK(q)
				if err != nil {
					t.Fatalf("step %d: snapshot from step %d: %v", step, fr.step, err)
				}
				check(t, q, fr.mirror, fr.dead, got, f.Deterministic)
			}
		}
	}

	for step := 0; step < 60; step++ {
		if step == 0 || step == 17 || step == 41 {
			takeSnapshot(step)
		}
		switch rng.Intn(3) {
		case 0:
			p := make([]float64, dims)
			for d := range p {
				p[d] = float64(rng.Intn(4)) / 4
			}
			id, err := up.Insert(p)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			if id != len(mirror) {
				t.Fatalf("step %d: insert returned ID %d, want %d", step, id, len(mirror))
			}
			mirror = append(mirror, p)
			dead = append(dead, false)
			checkEpoch(step, true)
			checkSnapshots(step)
		case 1:
			id := rng.Intn(len(mirror))
			removed := up.Remove(id)
			if removed != !dead[id] {
				t.Fatalf("step %d: Remove(%d) liveness disagrees with mirror", step, id)
			}
			dead[id] = true
			checkEpoch(step, removed)
			checkSnapshots(step)
		default:
			for _, q := range queries(wl, 2) {
				got, err := eng.TopK(q)
				if err != nil {
					t.Fatalf("step %d: query: %v", step, err)
				}
				check(t, q, mirror, dead, got, f.Deterministic)
			}
			checkEpoch(step, false)
		}
	}
	checkSnapshots(60)
	runPurge(t, f, wl, eng, up, mirror, dead)
}

// runPurge removes rows wholesale, in three waves, and checks the query mix
// after each: nine in ten of the live rows at random (every segment left
// tombstone-heavy — the regime where a sweep's score filter passes mostly
// dead rows), then every row in the lower half of the ID space (on a WithShards
// index, whole segments go dead while others stay live), then
// everything (every k exceeds the live rows, down to an empty answer).
func runPurge(t *testing.T, f Factory, wl workload, eng sdquery.Engine, up updatable, mirror [][]float64, dead []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(wl.seed * 13))
	waves := []func(id int) bool{
		func(int) bool { return rng.Intn(10) != 0 },
		func(id int) bool { return id < len(mirror)/2 },
		func(int) bool { return true },
	}
	for wi, doomed := range waves {
		for id := range mirror {
			if !dead[id] && doomed(id) {
				if !up.Remove(id) {
					t.Fatalf("purge wave %d: Remove(%d) of a live row reported false", wi, id)
				}
				dead[id] = true
			}
		}
		if got, want := eng.Len(), liveCount(dead); got != want {
			t.Fatalf("purge wave %d: Len = %d, oracle has %d", wi, got, want)
		}
		for qi, q := range queries(wl, 6) {
			got, err := eng.TopK(q)
			if err != nil {
				t.Fatalf("purge wave %d query %d: %v", wi, qi, err)
			}
			check(t, q, mirror, dead, got, f.Deterministic)
		}
	}
}

func liveCount(dead []bool) int {
	n := 0
	for _, d := range dead {
		if !d {
			n++
		}
	}
	return n
}
