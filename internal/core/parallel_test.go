package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/baseline/scan"
	"repro/internal/dataset"
	"repro/internal/query"
)

// goRunner runs every task on a goroutine of its own, so a parallel query's
// segment tasks genuinely race on the shared floor.
type goRunner struct{}

func (goRunner) Do(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(0)
	wg.Wait()
}

// TestParallelFloorRisesMidStep hammers the streamed parallel path: two
// stream-pinned segments per query, thousands of queries, tasks racing. A
// sibling can raise the shared floor at any instant, including between a
// task's retirement check and its accesses-to-termination estimate; when the
// scheduler read the line twice per step, a rise in between made the estimate
// negative and the batch size with it (a slice-bounds panic about once in
// 20k served queries; this loop hit it in most runs). Every answer must also
// match the scan.
func TestParallelFloorRisesMidStep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	data := dataset.Generate(dataset.Uniform, 6_000, 4, 17)
	currentData = data
	roles := sweepTestRoles()
	eng, err := New(data, Config{Roles: roles, RuntimeOptions: RuntimeOptions{Segments: 2, Pool: goRunner{}, AccessCost: StreamOnly}})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	var buf []query.Result
	for i := 0; i < 10_000; i++ {
		spec := query.Spec{Point: make([]float64, 4), Weights: make([]float64, 4), Roles: roles, K: 1 + rng.Intn(20)}
		for d := range spec.Point {
			spec.Point[d], spec.Weights[d] = rng.Float64(), rng.Float64()
		}
		if i%500 == 0 {
			checkAgainst(t, "parallel", eng, truth, spec)
			continue
		}
		if buf, _, err = eng.TopKAppend(buf[:0], spec); err != nil {
			t.Fatal(err)
		}
	}
}
