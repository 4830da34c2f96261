package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
)

// TestServerConcurrentStress mirrors the engine-level stress pattern
// (concurrency_test.go) one layer up: N goroutine clients hammer /v1/topk
// and /v1/insert (plus deletes) over HTTP while a tiny memtable keeps the
// background compactor continuously sealing and folding underneath, and one
// admin swap replaces the whole index mid-flight. Run under -race in CI
// this is the memory-model check for the serving layer: the coalescer's
// hand-offs, the atomic index pointer, and the metrics counters all under
// fire at once. In-flight answers can interleave with writes arbitrarily,
// so responses are shape-checked only; after every goroutine joins, the
// server must answer exactly like a direct call on its current index.
func TestServerConcurrentStress(t *testing.T) {
	roles := testRoles()
	data := dataset.Generate(dataset.Uniform, 2_000, len(roles), 50)
	idx, err := sdquery.NewShardedIndex(data, roles,
		sdquery.WithShards(4), sdquery.WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	// The swap target: a second index persisted to disk, loaded by the
	// admin endpoint mid-stress. Small memtable there too, so the post-swap
	// index churns just as hard.
	next, err := sdquery.NewShardedIndex(
		dataset.Generate(dataset.Uniform, 1_500, len(roles), 51), roles,
		sdquery.WithShards(2), sdquery.WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	path := filepath.Join(t.TempDir(), "next.sdx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(idx,
		WithQueueDepth(4096),
		WithCoalesceWindow(time.Millisecond),
		WithLoadOptions(sdquery.WithMemtableSize(16)))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	newBody := func(rng *rand.Rand) []byte {
		point := make([]float64, len(roles))
		weights := make([]float64, len(roles))
		names := make([]string, len(roles))
		for d := range point {
			point[d] = rng.Float64()
			weights[d] = rng.Float64()
			names[d] = roles[d].String()
		}
		b, err := json.Marshal(map[string]any{
			"point": point, "k": 1 + rng.Intn(10), "roles": names, "weights": weights,
		})
		if err != nil {
			panic(err)
		}
		return b
	}

	const steps = 120
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 4; w++ { // query clients
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(600 + w)))
			for i := 0; i < steps; i++ {
				status, out, err := postE(ts.Client(), ts.URL+"/v1/topk", newBody(rng))
				if err != nil {
					fail(err)
					return
				}
				if status != http.StatusOK {
					fail(fmt.Errorf("query client %d step %d: status %d: %s", w, i, status, out))
					return
				}
				var tr topkResponse
				if err := json.Unmarshal(out, &tr); err != nil {
					fail(fmt.Errorf("query client %d step %d: torn body %q: %w", w, i, out, err))
					return
				}
				for j := 1; j < len(tr.Results); j++ {
					if tr.Results[j].Score > tr.Results[j-1].Score {
						fail(fmt.Errorf("query client %d step %d: unsorted answer %s", w, i, out))
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // insert clients (steady churn pressure)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			for i := 0; i < steps; i++ {
				point := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				b, _ := json.Marshal(map[string]any{"point": point})
				status, out, err := postE(ts.Client(), ts.URL+"/v1/insert", b)
				if err != nil {
					fail(err)
					return
				}
				if status != http.StatusOK && status != http.StatusTooManyRequests {
					fail(fmt.Errorf("insert client %d step %d: status %d: %s", w, i, status, out))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // delete client: random ids, some live, some not
		defer wg.Done()
		rng := rand.New(rand.NewSource(800))
		client := ts.Client()
		for i := 0; i < steps; i++ {
			req, err := http.NewRequest(http.MethodDelete,
				fmt.Sprintf("%s/v1/points/%d", ts.URL, rng.Intn(2_500)), nil)
			if err != nil {
				fail(err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				fail(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				fail(fmt.Errorf("delete step %d: status %d", i, resp.StatusCode))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // one swap mid-flight
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		b, _ := json.Marshal(wireSwap{Path: path})
		status, out, err := postE(ts.Client(), ts.URL+"/v1/admin/swap", b)
		if err != nil {
			fail(err)
			return
		}
		if status != http.StatusOK {
			fail(fmt.Errorf("swap: status %d: %s", status, out))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-stress: the server must answer exactly like a direct call on its
	// current (post-swap, post-churn) index.
	cur := srv.Index()
	rng := rand.New(rand.NewSource(900))
	for i := 0; i < 10; i++ {
		body := newBody(rng)
		q, _, err := decodeQuery(body, len(cur.Roles()))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cur.TopKContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		status, out := post(t, ts.Client(), ts.URL+"/v1/topk", body)
		if status != http.StatusOK {
			t.Fatalf("post-stress query %d: status %d: %s", i, status, out)
		}
		want := goldenBody(t, direct)
		if string(out) != string(want) {
			t.Fatalf("post-stress query %d differs from direct call\ngot  %s\nwant %s", i, out, want)
		}
	}
	if st := srv.Statz(); st.Swaps != 1 {
		t.Fatalf("statz records %d swaps, want 1", st.Swaps)
	}
}
