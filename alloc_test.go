package sdquery

// Steady-state allocation tests: the batched hot path promises that once
// the per-engine context pools are warm, a query performs zero heap
// allocations. These assertions are what keeps future changes honest — a
// regression here silently re-introduces per-query GC pressure long before
// it shows up in wall-clock benchmarks.

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func allocRoles() []Role {
	return []Role{Repulsive, Attractive, Repulsive, Attractive}
}

func allocQuery() Query {
	return Query{
		Point:   []float64{0.3, 0.7, 0.1, 0.9},
		K:       10,
		Roles:   allocRoles(),
		Weights: []float64{0.8, 0.5, 0.3, 0.9},
	}
}

// measureAllocs warms f, forces a GC so pool clearing cannot land inside the
// measurement window, and returns the average allocations per run.
func measureAllocs(f func()) float64 {
	for i := 0; i < 20; i++ {
		f()
	}
	runtime.GC()
	return testing.AllocsPerRun(100, f)
}

// TestTopKAppendZeroAllocs pins every way a query takes a segment: the
// default zone-sweeps it, the stream-pinned engine runs the aggregation to
// termination, and the same engine sweeps it under a plan that binds no
// stream (every weight zero; the cell keeps its name from the retired
// sweep-only hook). The zone sweep's bounds and heap and the streams' seen
// bitset live in the pooled context like everything else.
func TestTopKAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	for _, mode := range []struct {
		name         string
		opts         []SDOption
		zero         bool // every weight zero: the plan binds no stream
		swept, fetch bool // what the query must have done
	}{
		{"default", nil, false, true, false},
		{"stream", []SDOption{WithStreamOnly()}, false, false, true},
		{"sweep", []SDOption{WithStreamOnly()}, true, true, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			idx, err := NewSDIndex(data, allocRoles(), mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			q := allocQuery()
			if mode.zero {
				q.Weights = make([]float64, len(q.Weights))
			}
			_, st, err := idx.TopKWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			if (st.Swept > 0) != mode.swept || (st.Fetched > 0) != mode.fetch {
				t.Fatalf("query did not take the path under test: %+v", st)
			}
			var buf []Result
			avg := measureAllocs(func() {
				var err error
				buf, err = idx.TopKAppend(buf[:0], q)
				if err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("SDIndex.TopKAppend allocates %.2f objects per query in steady state, want 0", avg)
			}
			if len(buf) != q.K {
				t.Fatalf("got %d results, want %d", len(buf), q.K)
			}
		})
	}
}

// TestTopKAppendZeroAllocsParallel pins the served shape: on a WithWorkers
// index over a WithShards(4) stack, a warm single query walks all four
// segments on the caller's goroutine and allocates nothing — the per-segment
// scheduler arrays live in the pooled context. It holds on the freshly built
// stack and again after update churn and a Compact, which must hand back
// four equal segments.
func TestTopKAppendZeroAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithWorkers(2), WithShards(4), WithMemtableSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := allocQuery()
	check := func(state string) {
		if segs, mem := idx.Segments(); segs != 4 || mem != 0 {
			t.Fatalf("%s: %d sealed segments, %d memtable rows, want 4, 0", state, segs, mem)
		}
		var buf []Result
		avg := measureAllocs(func() {
			var err error
			buf, err = idx.TopKAppend(buf[:0], q)
			if err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("%s: TopKAppend over 4 segments allocates %.2f objects per query in steady state, want 0", state, avg)
		}
		if len(buf) != q.K {
			t.Fatalf("%s: got %d results, want %d", state, len(buf), q.K)
		}
	}
	check("built")
	for i := 0; i < 2_000; i++ {
		if _, err := idx.Insert([]float64{0.1, 0.9, 0.4, 0.6}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			idx.Remove(i * 4 % 10_000)
		}
	}
	idx.Compact()
	check("churned and compacted")
}

// TestBatchTopKZeroAllocsPerQuery pins the batch path: one task per query
// forked over the index's workers, each through the pooled scratch buffer,
// so a warm batch allocates its answer — the outer slice and one exact-size
// result slice per query — plus a handful of objects per call (the task
// closure, the first-error record, the fork-join's counter, claim loop and
// helper goroutines), and nothing that grows with the batch or the segment
// count.
func TestBatchTopKZeroAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewShardedIndex(data, allocRoles(), WithShards(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for _, n := range []int{16, 64} {
		queries := make([]Query, n)
		for i := range queries {
			queries[i] = allocQuery()
			queries[i].Point[0] = float64(i) / float64(n)
		}
		avg := measureAllocs(func() {
			if _, err := idx.BatchTopK(queries); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(n + 8); avg > want {
			t.Fatalf("BatchTopK of %d allocates %.2f objects per call in steady state, want ≤ %.0f", n, avg, want)
		}
	}
}

// TestTopKAppendZeroAllocsAfterInsert pins the memtable query path: rows
// appended by Insert are covered by regrown pooled bitsets and scored by
// the sweep of the memtable's columns (simd.ScoreCols, the segments' kernel),
// neither of which may allocate in steady state.
// Compaction is disabled so the memtable is guaranteed to hold rows during
// the measurement (a background seal mid-window would be charged to the
// query by testing.AllocsPerRun's global counters).
func TestTopKAppendZeroAllocsAfterInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 2_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	q := allocQuery()
	// Warm the context pool at the build-time dataset size, then grow the
	// dataset well past the original bitset coverage.
	var buf []Result
	for i := 0; i < 8; i++ {
		if buf, err = idx.TopKAppend(buf[:0], q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1_000; i++ {
		if _, err := idx.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, mem := idx.Segments(); mem != 1_000 {
		t.Fatalf("expected 1000 memtable rows, have %d", mem)
	}
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("post-Insert queries allocate %.2f objects per query (memtable scan or stale bitset regression), want 0", avg)
	}
}

// TestTopKAppendZeroAllocsCompacted pins the acceptance contract of the
// segment refactor: after update churn and an explicit Compact — one sealed
// segment, empty memtable — the hot path is exactly as allocation-free as a
// freshly built index, snapshot acquisition included (a single atomic
// load).
func TestTopKAppendZeroAllocsCompacted(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithMemtableSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2_000; i++ {
		if _, err := idx.Insert([]float64{0.1, 0.9, 0.4, 0.6}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			idx.Remove(i * 4 % 10_000)
		}
	}
	idx.Compact()
	if segs, mem := idx.Segments(); segs != 1 || mem != 0 {
		t.Fatalf("after Compact: %d segments, %d memtable rows, want 1, 0", segs, mem)
	}
	q := allocQuery()
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("compacted-index queries allocate %.2f objects per query in steady state, want 0", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}

// TestTopKAppendZeroAllocsManyShapes pins zero allocations for every query
// shape, not just a few hot ones: on an 8-dimension index, after more than a
// thousand distinct shapes — per dimension the role engaged with a nonzero
// weight, engaged with a zero weight, or Ignored — one more new shape still
// queries without allocating. Every query derives its plan into its pooled
// context.
func TestTopKAppendZeroAllocsManyShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	const dims, shapes = 8, 1100
	roles := make([]Role, dims)
	for d := range roles {
		roles[d] = []Role{Repulsive, Attractive}[d%2]
	}
	idx, err := NewSDIndex(dataset.Generate(dataset.Uniform, 2_000, dims, 3), roles)
	if err != nil {
		t.Fatal(err)
	}
	shape := func(s int) Query {
		q := Query{Point: make([]float64, dims), K: 10, Roles: make([]Role, dims), Weights: make([]float64, dims)}
		for d := range q.Point {
			q.Point[d] = float64(d) / dims
			switch s % 3 {
			case 0:
				q.Roles[d], q.Weights[d] = roles[d], 0.5+float64(d)/dims
			case 1:
				q.Roles[d] = roles[d] // engaged, weight 0
			} // case 2: Ignored
			s /= 3
		}
		return q
	}
	var buf []Result
	for s := 0; s < shapes; s++ {
		if buf, err = idx.TopKAppend(buf[:0], shape(s)); err != nil {
			t.Fatal(err)
		}
	}
	q := shape(shapes)
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("a query of shape %d allocates %.2f objects per query in steady state, want 0", shapes, avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}
