package sdquery

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestConcurrentQueries: a shared SDIndex must serve parallel queries with
// answers identical to the sequential ones (the read-only query path holds
// all per-query state in cursors).
func TestConcurrentQueries(t *testing.T) {
	data := dataset.Generate(dataset.AntiCorrelated, 30_000, 4, 8)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	idx, err := NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const nq = 64
	queries := make([]Query, nq)
	for i := range queries {
		queries[i] = Query{
			Point:   []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
			K:       1 + rng.Intn(10),
			Roles:   roles,
			Weights: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	sequential := make([][]Result, nq)
	for i, q := range queries {
		r, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = r
	}

	var wg sync.WaitGroup
	errs := make(chan error, nq*4)
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nq; i += 4 {
				got, err := idx.TopK(queries[i])
				if err != nil {
					errs <- err
					return
				}
				for j := range sequential[i] {
					if math.Abs(got[j].Score-sequential[i][j].Score) > 1e-12 {
						t.Errorf("query %d rank %d: concurrent %v vs sequential %v",
							i, j, got[j].Score, sequential[i][j].Score)
						return
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueriesConcurrentWithCompaction hammers one SDIndex with lock-free
// queries while writers churn the row set hard enough (tiny memtable) that
// the background compactor continuously seals memtables and folds segments
// underneath them — plus explicit Compact calls racing everything. Queries
// pin explicit snapshots mid-churn and must keep answering byte-identically
// to the oracle frozen at acquisition; the settled index must agree with
// the mirror exactly. Run under -race this is the memory-model check for
// the snapshot publication protocol (atomic load on the read side, COW
// tombstones, append-shared memtable arrays).
func TestQueriesConcurrentWithCompaction(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive}
	data := dataset.Generate(dataset.Uniform, 1_500, len(roles), 77)
	idx, err := NewSDIndex(data, roles, WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}

	var mirrorMu sync.Mutex
	mirror := append([][]float64(nil), data...)
	dead := make([]bool, len(mirror))

	newQuery := func(rng *rand.Rand) Query {
		q := Query{
			Point:   make([]float64, len(roles)),
			K:       1 + rng.Intn(10),
			Roles:   roles,
			Weights: make([]float64, len(roles)),
		}
		for d := range q.Point {
			q.Point[d] = rng.Float64()
			q.Weights[d] = rng.Float64()
		}
		return q
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	const steps = 200
	for w := 0; w < 3; w++ { // live-query goroutines (sanity-checked only)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var buf []Result
			for i := 0; i < steps; i++ {
				var err error
				buf, err = idx.TopKAppend(buf[:0], newQuery(rng))
				if err != nil {
					fail(err)
					return
				}
				for j := 1; j < len(buf); j++ {
					if buf[j].Score > buf[j-1].Score {
						fail(fmt.Errorf("unsorted concurrent answer: %v", buf))
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // snapshot goroutines: exact frozen-oracle checks
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < steps/10; i++ {
				// Freeze the mirror and the snapshot atomically with respect
				// to the writers, then verify the snapshot against that
				// frozen oracle while churn continues underneath.
				mirrorMu.Lock()
				snap := idx.Snapshot()
				frozenMirror := append([][]float64(nil), mirror...)
				frozenDead := append([]bool(nil), dead...)
				mirrorMu.Unlock()
				for qi := 0; qi < 5; qi++ {
					q := newQuery(rng)
					got, err := snap.TopK(q)
					if err != nil {
						fail(err)
						return
					}
					want := oracleTopK(frozenMirror, frozenDead, q)
					if len(got) != len(want) {
						fail(fmt.Errorf("snapshot: %d results, frozen oracle has %d", len(got), len(want)))
						return
					}
					for j := range want {
						if got[j] != want[j] {
							fail(fmt.Errorf("snapshot isolation violated at rank %d: %+v vs %+v", j, got[j], want[j]))
							return
						}
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // writer goroutines
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < steps; i++ {
				mirrorMu.Lock()
				if rng.Intn(3) == 0 {
					id := rng.Intn(len(mirror))
					if idx.Remove(id) {
						dead[id] = true
					}
				} else {
					p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
					id, err := idx.Insert(p)
					if err == nil && id != len(mirror) {
						err = fmt.Errorf("Insert returned id %d, want %d", id, len(mirror))
					}
					if err != nil {
						mirrorMu.Unlock()
						fail(err)
						return
					}
					mirror = append(mirror, p)
					dead = append(dead, false)
				}
				mirrorMu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() { // full compactions racing the background compactor
		defer wg.Done()
		for i := 0; i < 6; i++ {
			idx.Compact()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-hoc consistency: the settled index answers exactly like the scan
	// oracle over the mirrored live rows — before and after a final Compact.
	live := 0
	for _, d := range dead {
		if !d {
			live++
		}
	}
	if idx.Len() != live {
		t.Fatalf("Len = %d, mirror has %d live rows", idx.Len(), live)
	}
	rng := rand.New(rand.NewSource(400))
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < 20; i++ {
			q := newQuery(rng)
			got, err := idx.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "post-stress", got, oracleTopK(mirror, dead, q))
		}
		idx.Compact()
		if segs, mem := idx.Segments(); segs > 1 || mem != 0 {
			t.Fatalf("after Compact: %d segments, %d memtable rows", segs, mem)
		}
	}
}

// TestShardedIndexConcurrentStress hammers one four-segment index with
// concurrent TopK, BatchTopK (forked over four workers), Insert, and Remove
// from many goroutines while the snapshot moves underneath. In-flight answers can interleave with
// updates arbitrarily, so they are only sanity-checked; once every goroutine
// has joined, the index must agree with the scan oracle over the mirrored
// live set exactly. Run under -race this doubles as the memory-model check.
func TestShardedIndexConcurrentStress(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive}
	data := dataset.Generate(dataset.Uniform, 2_000, len(roles), 33)
	idx, err := NewShardedIndex(data, roles, WithShards(4), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	// mirror tracks every row ever indexed; markers record which inserts
	// and removes actually happened, under one lock shared by the writers.
	var mirrorMu sync.Mutex
	mirror := append([][]float64(nil), data...)
	dead := make([]bool, len(mirror))

	newQuery := func(rng *rand.Rand) Query {
		q := Query{
			Point:   make([]float64, len(roles)),
			K:       1 + rng.Intn(12),
			Roles:   roles,
			Weights: make([]float64, len(roles)),
		}
		for d := range q.Point {
			q.Point[d] = rng.Float64()
			q.Weights[d] = rng.Float64()
		}
		return q
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	const steps = 150
	for w := 0; w < 4; w++ { // query goroutines
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < steps; i++ {
				res, err := idx.TopK(newQuery(rng))
				if err != nil {
					fail(err)
					return
				}
				for j := 1; j < len(res); j++ {
					if res[j].Score > res[j-1].Score {
						fail(fmt.Errorf("unsorted concurrent answer: %v", res))
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // batch goroutines
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for i := 0; i < steps/10; i++ {
				queries := make([]Query, 8)
				for j := range queries {
					queries[j] = newQuery(rng)
				}
				if _, err := idx.BatchTopK(queries); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // insert goroutines
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + w)))
			for i := 0; i < steps; i++ {
				p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				mirrorMu.Lock()
				id, err := idx.Insert(p)
				if err == nil && id != len(mirror) {
					err = fmt.Errorf("Insert returned id %d, want %d", id, len(mirror))
				}
				if err == nil {
					mirror = append(mirror, p)
					dead = append(dead, false)
				}
				mirrorMu.Unlock()
				if err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // remove goroutines
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + w)))
			for i := 0; i < steps; i++ {
				mirrorMu.Lock()
				id := rng.Intn(len(mirror))
				if idx.Remove(id) {
					dead[id] = true
				}
				mirrorMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-hoc consistency: the settled index must answer exactly like the
	// scan oracle over the mirrored live rows.
	live := 0
	for _, d := range dead {
		if !d {
			live++
		}
	}
	if idx.Len() != live {
		t.Fatalf("Len = %d, mirror has %d live rows", idx.Len(), live)
	}
	rng := rand.New(rand.NewSource(5000))
	for i := 0; i < 30; i++ {
		q := newQuery(rng)
		got, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "post-stress", got, oracleTopK(mirror, dead, q))
	}
}
