package sdquery

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestBatchTopKMatchesSequential: a batch answers every query exactly as a
// TopK loop does, on an index with workers (one task per query, each over
// the whole segment stack) and on one without (the caller's goroutine
// alone).
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
	idx, err := NewSDIndex(data, roles)
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
	scan, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("%d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("rank %d: %+v, scan %+v", i, res[i], want[i])
		}
	}
	// One segment of ⌈10000/128⌉ blocks, swept whole; the point of the
	// index is that most blocks are skipped unscored. The stream counters
	// are always 0.
	if stats.Segments != 1 || stats.SweptSegments != 1 || stats.Swept != idx.Len() || stats.BlocksBounded != 79 ||
		stats.BlocksSkipped == 0 || stats.Scored < 5 || stats.Scored >= stats.Swept ||
		stats.Fetched != 0 || stats.Subproblems != 0 || stats.Rounds != 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	if _, _, err := idx.TopKWithStats(Query{Point: []float64{1}, K: 1,
		Roles: roles[:1], Weights: []float64{1}}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestWorkerPoolDoPanicContainment: a panic in f on the caller's goroutine
// reaches a recovering caller with its original value, only after every
// helper has returned — so the caller's unwind cannot race a helper still
// running f over shared state — and the helpers claim no index after it.
func TestWorkerPoolDoPanicContainment(t *testing.T) {
	const n = 64
	p := newWorkerPool(3) // the caller and two helpers
	caller := goid()
	var started, finished, calls atomic.Int32
	panicking := make(chan struct{})
	got := func() (r any) {
		defer func() { r = recover() }()
		p.do(n, func(i int) {
			calls.Add(1)
			if goid() == caller {
				for started.Load() < 2 { // both helpers are inside f
					runtime.Gosched()
				}
				close(panicking)
				panic("boom")
			}
			started.Add(1)
			<-panicking
			time.Sleep(10 * time.Millisecond) // still running while the caller unwinds
			finished.Add(1)
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the original panic value", got)
	}
	if s, f := started.Load(), finished.Load(); f != s {
		t.Fatalf("do returned with %d of %d helper calls still running", s-f, s)
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("%d of %d indices ran: the helpers kept claiming after the panic", c, n)
	}
	// A fresh do call works after the failure.
	var m atomic.Int32
	p.do(5, func(i int) { m.Add(1) })
	if m.Load() != 5 {
		t.Fatalf("follow-up do ran %d of 5 tasks", m.Load())
	}
}
