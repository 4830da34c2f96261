package sdquery

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// TestBatchTopKMatchesSequential: a batch answers every query exactly as a
// TopK loop does, on an index with a pool (one task per query, segments
// walked sequentially inside each) and on one without (the caller's
// goroutine alone).
func TestBatchTopKMatchesSequential(t *testing.T) {
	for name, opts := range map[string][]SDOption{
		"pool":    {WithShards(3), WithWorkers(4)},
		"no-pool": nil,
	} {
		t.Run(name, func(t *testing.T) { testBatchMatchesSequential(t, opts...) })
	}
}

func testBatchMatchesSequential(t *testing.T, opts ...SDOption) {
	data := dataset.Generate(dataset.Uniform, 20_000, 4, 21)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	idx, err := NewSDIndex(data, roles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(22))
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = Query{
			Point:   []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
			K:       1 + rng.Intn(8),
			Roles:   roles,
			Weights: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	batch, err := idx.BatchTopK(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		want, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d rank %d: %v vs %v", i, j, batch[i][j], want[j])
			}
		}
	}
}

func TestBatchTopKPropagatesErrors(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 100, 2, 23)
	roles := []Role{Repulsive, Attractive}
	idx, err := NewSDIndex(data, roles, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	queries := []Query{
		{Point: []float64{0.5, 0.5}, K: 1, Roles: roles, Weights: []float64{1, 1}},
		{Point: []float64{0.5}, K: 1, Roles: roles[:1], Weights: []float64{1}}, // bad dims
	}
	if _, err := idx.BatchTopK(queries); err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("batch with an invalid query: err = %v, want it to name query 1", err)
	}
	empty, err := idx.BatchTopK(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

func TestTopKWithStats(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 24)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	// Stream-pinned: these are the paper's counters. (At 10k rows the
	// planning default hands the segment to a sweep — checked below.)
	idx, err := NewSDIndex(data, roles, WithStreamOnly())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Point:   []float64{0.5, 0.5, 0.5, 0.5},
		K:       5,
		Roles:   roles,
		Weights: []float64{1, 1, 1, 1},
	}
	res, stats, err := idx.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results, want 5", len(res))
	}
	if stats.Swept != 0 || stats.SweptSegments != 0 {
		t.Fatalf("stream-pinned engine swept: %+v", stats)
	}
	if stats.Subproblems != 2 { // two (repulsive, attractive) pairs
		t.Fatalf("Subproblems = %d, want 2", stats.Subproblems)
	}
	if stats.Fetched < 5 || stats.Scored < 5 || stats.Scored > stats.Fetched {
		t.Fatalf("implausible stats: %+v", stats)
	}
	// The point of the index: far fewer fetches than a scan.
	if stats.Fetched >= idx.Len() {
		t.Fatalf("fetched %d of %d points — no pruning", stats.Fetched, idx.Len())
	}
	if _, _, err := idx.TopKWithStats(Query{Point: []float64{1}, K: 1,
		Roles: roles[:1], Weights: []float64{1}}); err == nil {
		t.Fatal("invalid query accepted")
	}

	// The default engine finishes this segment with a sweep: Swept names the
	// part of Scored that no sorted access paid for.
	planned, err := NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	pres, ps, err := planned.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if pres[i] != res[i] {
			t.Fatalf("planned answer differs at rank %d: %+v vs %+v", i, pres[i], res[i])
		}
	}
	if ps.SweptSegments != 1 || ps.Swept == 0 || ps.Swept > planned.Len() ||
		ps.Scored-ps.Swept > ps.Fetched || ps.Fetched >= stats.Fetched {
		t.Fatalf("implausible planned stats: %+v (stream-pinned: %+v)", ps, stats)
	}
}

// TestWorkerPoolDoPanicContainment: a panic in f on the caller's goroutine
// must re-propagate only after the pool's accounting is settled, so a
// recovering caller cannot race still-running workers over pooled state.
// A closed pool makes the path deterministic: everything runs inline.
func TestWorkerPoolDoPanicContainment(t *testing.T) {
	p := newWorkerPool(2)
	p.close()
	ran := make([]bool, 8)
	got := func() (r any) {
		defer func() { r = recover() }()
		p.do(len(ran), func(i int) {
			if i == 3 {
				panic("boom")
			}
			ran[i] = true
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the original panic value", got)
	}
	for i := 0; i < 3; i++ {
		if !ran[i] {
			t.Fatalf("index %d did not run before the panic", i)
		}
	}
	for i := 4; i < len(ran); i++ {
		if ran[i] {
			t.Fatalf("index %d ran after the panic on a closed pool", i)
		}
	}
	// The pool (and a fresh do call) keeps working after the failure.
	var n atomic.Int32
	p.do(5, func(i int) { n.Add(1) })
	if n.Load() != 5 {
		t.Fatalf("follow-up do ran %d of 5 tasks", n.Load())
	}
}
