package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// testRoles is the build-time role vector every serving test uses.
func testRoles() []sdquery.Role {
	return []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
}

func testIndex(t testing.TB, n int, seed int64, opts ...sdquery.SDOption) *sdquery.ShardedIndex {
	t.Helper()
	data := dataset.Generate(dataset.Uniform, n, len(testRoles()), seed)
	idx, err := sdquery.NewShardedIndex(data, testRoles(), append([]sdquery.SDOption{sdquery.WithShards(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

func testQueries(n int, seed int64) []sdquery.Query {
	rng := rand.New(rand.NewSource(seed))
	roles := testRoles()
	qs := make([]sdquery.Query, n)
	for i := range qs {
		q := sdquery.Query{
			Point:   make([]float64, len(roles)),
			K:       1 + rng.Intn(10),
			Roles:   roles,
			Weights: make([]float64, len(roles)),
		}
		for d := range q.Point {
			q.Point[d] = rng.Float64()
			q.Weights[d] = rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

// queryBody renders the wire JSON for a query.
func queryBody(t testing.TB, q sdquery.Query) []byte {
	t.Helper()
	roles := make([]string, len(q.Roles))
	for i, r := range q.Roles {
		roles[i] = r.String()
	}
	body, err := json.Marshal(map[string]any{
		"point": q.Point, "k": q.K, "roles": roles, "weights": q.Weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// goldenBody renders the byte-exact response the server must produce for
// these results — the same encoder the handler uses.
func goldenBody(t *testing.T, res []sdquery.Result) []byte {
	t.Helper()
	body, err := json.Marshal(topkResponse{Results: wireResults(res)})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// postE is the goroutine-safe POST helper (no t.Fatal).
func postE(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

func post(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	status, out, err := postE(client, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// TestTopKGolden pins the acceptance contract: a /v1/topk response is
// byte-identical to encoding the results of a direct ShardedIndex.TopK call
// — through the coalescing path and through the direct (coalescing
// disabled) path alike.
func TestTopKGolden(t *testing.T) {
	idx := testIndex(t, 5_000, 1)
	queries := testQueries(20, 2)

	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"coalesced", nil},
		{"direct", []Option{WithCoalesceWindow(-1)}},
		{"instant-window", []Option{WithCoalesceWindow(0)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv := New(idx, mode.opts...)
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for i, q := range queries {
				direct, err := idx.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				status, body := post(t, ts.Client(), ts.URL+"/v1/topk", queryBody(t, q))
				if status != http.StatusOK {
					t.Fatalf("query %d: status %d: %s", i, status, body)
				}
				if want := goldenBody(t, direct); !bytes.Equal(body, want) {
					t.Fatalf("query %d: response not byte-identical to direct TopK\ngot  %s\nwant %s", i, body, want)
				}
			}
		})
	}
}

// TestBatchGolden: /v1/batch responses must match direct BatchTopK byte for
// byte.
func TestBatchGolden(t *testing.T) {
	idx := testIndex(t, 5_000, 3)
	queries := testQueries(8, 4)
	srv := New(idx)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wire := make([]json.RawMessage, len(queries))
	for i, q := range queries {
		wire[i] = queryBody(t, q)
	}
	body, err := json.Marshal(map[string]any{"queries": wire})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := idx.BatchTopK(queries)
	if err != nil {
		t.Fatal(err)
	}
	resp := batchResponse{Results: make([][]wireResult, len(direct))}
	for i, res := range direct {
		resp.Results[i] = wireResults(res)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	status, got := post(t, ts.Client(), ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch response not byte-identical to direct BatchTopK\ngot  %s\nwant %s", got, want)
	}
}

// pastDomain is the smallest float64 above the engines' value bound.
var pastDomain = math.Nextafter(1e150, math.Inf(1))

// TestErrorShapes: malformed requests answer 400 with the JSON error
// envelope — and a decodable-but-engine-invalid query (a role flip) fails
// alone without poisoning the batch it was coalesced into.
func TestErrorShapes(t *testing.T) {
	idx := testIndex(t, 1_000, 5)
	srv := New(idx)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"truncated-json", `{"point": [0.1, 0.2`},
		{"k-zero", `{"point":[0.1,0.2,0.3,0.4],"k":0,"roles":["r","a","r","a"]}`},
		{"k-missing", `{"point":[0.1,0.2,0.3,0.4],"roles":["r","a","r","a"]}`},
		{"wrong-dims", `{"point":[0.1,0.2],"k":3,"roles":["r","a"]}`},
		{"roles-length", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a"]}`},
		{"bad-role", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","sideways"]}`},
		{"negative-weight", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[1,1,1,-0.5]}`},
		{"weights-length", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[1]}`},
		{"all-ignored", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["i","i","i","i"]}`},
		{"unknown-field", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"fanciness":9}`},
		{"trailing-data", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"]} {"point":[0.9,0.9,0.9,0.9],"k":1,"roles":["r","a","r","a"]}`},
		{"role-flip", `{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["a","r","a","r"]}`},
		// One ulp past the shared value domain (|v| ≤ 1e150).
		{"point-past-domain", fmt.Sprintf(`{"point":[0.1,%v,0.3,0.4],"k":3,"roles":["r","a","r","a"]}`, -pastDomain)},
		{"weight-past-domain", fmt.Sprintf(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[1,%v,1,1]}`, pastDomain)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.Client(), ts.URL+"/v1/topk", []byte(tc.body))
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error envelope missing: %s (unmarshal err %v)", body, err)
			}
		})
	}

	// The role-flip request above rode the coalescer; a well-formed query
	// submitted concurrently with flips must still answer correctly.
	queries := testQueries(4, 6)
	bodies := make([][]byte, len(queries))
	goldens := make([][]byte, len(queries))
	for i, q := range queries {
		direct, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = queryBody(t, q)
		goldens[i] = goldenBody(t, direct)
	}
	flip := []byte(cases[len(cases)-1].body)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, _, err := postE(ts.Client(), ts.URL+"/v1/topk", flip); err != nil {
					t.Error(err)
				}
				return
			}
			qi := i / 2 % len(queries)
			status, body, err := postE(ts.Client(), ts.URL+"/v1/topk", bodies[qi])
			if err != nil {
				t.Error(err)
				return
			}
			if status != http.StatusOK {
				t.Errorf("good query got status %d: %s", status, body)
				return
			}
			if !bytes.Equal(body, goldens[qi]) {
				t.Errorf("good query poisoned by coalesced bad neighbor\ngot  %s\nwant %s", body, goldens[qi])
			}
		}(i)
	}
	wg.Wait()
}

// TestInsertRemove exercises the write endpoints end to end.
func TestInsertRemove(t *testing.T) {
	idx := testIndex(t, 500, 7)
	srv := New(idx)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := idx.Len()
	status, body := post(t, ts.Client(), ts.URL+"/v1/insert", []byte(`{"point":[0.5,0.5,0.5,0.5]}`))
	if status != http.StatusOK {
		t.Fatalf("insert status %d: %s", status, body)
	}
	var ins insertResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != before {
		t.Fatalf("insert id %d, want %d", ins.ID, before)
	}
	if idx.Len() != before+1 {
		t.Fatalf("Len %d after insert, want %d", idx.Len(), before+1)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", ts.URL, ins.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both attempts answer removed:true — deletes are ack-idempotent: a
	// retried DELETE whose first attempt committed (ack lost) finds the
	// tombstone and reports the same success the original would have.
	for attempt, wantRemoved := range []bool{true, true} {
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete status %d: %s", resp.StatusCode, out)
		}
		var rm removeResponse
		if err := json.Unmarshal(out, &rm); err != nil {
			t.Fatal(err)
		}
		if rm.Removed != wantRemoved {
			t.Fatalf("delete attempt %d: removed=%v, want %v", attempt, rm.Removed, wantRemoved)
		}
	}
	if idx.Len() != before {
		t.Fatalf("Len %d after delete, want %d", idx.Len(), before)
	}

	status, body = post(t, ts.Client(), ts.URL+"/v1/insert", []byte(`{"point":[0.5]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("bad-dims insert: status %d: %s", status, body)
	}
}

// TestStatsDeterministic: a query's work counters are a pure function of the
// query and the index state, so with the result cache off two identical
// stats:true requests answer byte-identical bodies. The index is the served
// shape — four zone-swept segments.
func TestStatsDeterministic(t *testing.T) {
	idx := testIndex(t, 20_000, 9)
	srv := New(idx, WithResultCache(false))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	withStats := func(q sdquery.Query) []byte {
		wq := queryBody(t, q)
		return append(wq[:len(wq)-1], []byte(`,"stats":true}`)...)
	}
	for i, q := range testQueries(21, 12) {
		var bodies [2][]byte
		for r := range bodies {
			var status int
			if status, bodies[r] = post(t, ts.Client(), ts.URL+"/v1/topk", withStats(q)); status != http.StatusOK {
				t.Fatalf("query %d: status %d: %s", i, status, bodies[r])
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("query %d: identical requests, different bodies\n%s%s", i, bodies[0], bodies[1])
		}
		if !bytes.Contains(bodies[0], []byte(`"stats":{`)) {
			t.Fatalf("query %d: no stats: %s", i, bodies[0])
		}
	}
}

// TestObservabilityEndpoints sanity-checks /healthz, /metrics, and /statz.
func TestObservabilityEndpoints(t *testing.T) {
	// 4 segments of 5000 rows, each answered by a zone sweep: the sweep
	// counters are nonzero and the sorted-access counter reads 0.
	idx := testIndex(t, 20_000, 9)
	srv := New(idx)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range testQueries(4, 10) {
		if status, body := post(t, ts.Client(), ts.URL+"/v1/topk", queryBody(t, q)); status != http.StatusOK {
			t.Fatalf("topk status %d: %s", status, body)
		}
	}
	// A stats-enabled query feeds the engine counters.
	q := testQueries(1, 11)[0]
	wq := queryBody(t, q)
	wq = append(wq[:len(wq)-1], []byte(`,"stats":true}`)...)
	status, body := post(t, ts.Client(), ts.URL+"/v1/topk", wq)
	if status != http.StatusOK {
		t.Fatalf("stats topk status %d: %s", status, body)
	}
	var tr topkResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Stats == nil || tr.Stats.Fetched != 0 || tr.Stats.Swept == 0 || tr.Stats.SweptSegments != 4 ||
		tr.Stats.Scored == 0 {
		t.Fatalf("stats=true response carries no work counters: %s", body)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"sdserver_requests_total{endpoint=\"topk\"}",
		"sdserver_request_duration_seconds_bucket",
		"sdserver_coalesced_batches_total",
		"sdserver_index_points",
		"sdserver_index_segments",
		"sdserver_index_compactions_total",
		"sdserver_engine_fetched_total",
		"sdserver_engine_swept_rows_total",
		"sdserver_engine_swept_segments_total",
	} {
		if !bytes.Contains(prom, []byte(metric)) {
			t.Fatalf("/metrics missing %q:\n%s", metric, prom)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Statz
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statz did not parse: %v\n%s", err, raw)
	}
	if st.Endpoints["topk"].Requests < 5 {
		t.Fatalf("statz records %d topk requests, want ≥ 5", st.Endpoints["topk"].Requests)
	}
	if st.EngineFetched != 0 || st.StatsQueries != 1 || st.EngineScored != uint64(tr.Stats.Scored) ||
		st.EngineSwept != uint64(tr.Stats.Swept) || st.EngineSweptSeg != uint64(tr.Stats.SweptSegments) {
		t.Fatalf("statz engine counters not wired: %+v", st)
	}

	// Drain: healthz flips to 503 after Shutdown.
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", resp.StatusCode)
	}
}

// TestSwapUnderLoad is the zero-downtime acceptance test: clients hammer
// /v1/topk while an admin swap replaces the index mid-flight. Every
// response must be byte-identical to either the old or the new index's
// direct answer — never an error, never a mixture — and once the swap call
// returns, fresh requests must answer from the new index.
func TestSwapUnderLoad(t *testing.T) {
	idxA := testIndex(t, 4_000, 20)
	idxB := testIndex(t, 3_000, 21)

	dir := t.TempDir()
	path := filepath.Join(dir, "b.sdx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idxB.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(idxA, WithQueueDepth(4096))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := testQueries(8, 22)
	goldenA := make([][]byte, len(queries))
	goldenB := make([][]byte, len(queries))
	for i, q := range queries {
		resA, err := idxA.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := idxB.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		goldenA[i] = goldenBody(t, resA)
		goldenB[i] = goldenBody(t, resB)
		if bytes.Equal(goldenA[i], goldenB[i]) {
			t.Fatalf("query %d: indexes answer identically; the swap test needs distinguishable answers", i)
		}
	}

	const clients = 6
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i] = queryBody(t, q)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qi := w % len(queries)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				status, out, err := postE(ts.Client(), ts.URL+"/v1/topk", bodies[qi])
				if err != nil {
					errc <- fmt.Errorf("client %d req %d: %w", w, i, err)
					return
				}
				if status != http.StatusOK {
					errc <- fmt.Errorf("client %d req %d: status %d: %s", w, i, status, out)
					return
				}
				if !bytes.Equal(out, goldenA[qi]) && !bytes.Equal(out, goldenB[qi]) {
					errc <- fmt.Errorf("client %d req %d: torn response\ngot %s", w, i, out)
					return
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let the clients establish load
	swapBody, _ := json.Marshal(wireSwap{Path: path})
	status, out := post(t, ts.Client(), ts.URL+"/v1/admin/swap", swapBody)
	if status != http.StatusOK {
		t.Fatalf("swap status %d: %s", status, out)
	}
	var sr swapResponse
	if err := json.Unmarshal(out, &sr); err != nil || !sr.Swapped || sr.Points != idxB.Len() {
		t.Fatalf("swap response %s (err %v)", out, err)
	}
	time.Sleep(20 * time.Millisecond) // keep load on the swapped index
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Post-swap: every query must answer from the new index.
	for i, q := range queries {
		status, out := post(t, ts.Client(), ts.URL+"/v1/topk", queryBody(t, q))
		if status != http.StatusOK {
			t.Fatalf("post-swap query %d: status %d: %s", i, status, out)
		}
		if !bytes.Equal(out, goldenB[i]) {
			t.Fatalf("post-swap query %d answered from the old index\ngot  %s\nwant %s", i, out, goldenB[i])
		}
	}
	if st := srv.Statz(); st.Swaps != 1 {
		t.Fatalf("statz records %d swaps, want 1", st.Swaps)
	}
}

// slowIndex delegates to a real index but holds every batch call until
// released — the deterministic way to fill the admission pipeline. The
// context form honors cancellation while parked, like the real engine.
type slowIndex struct {
	Index
	gate chan struct{}
}

func (s *slowIndex) BatchTopKContext(ctx context.Context, queries []sdquery.Query) ([][]sdquery.Result, error) {
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Index.BatchTopKContext(ctx, queries)
}

// TestBackpressure: with one executor wedged, one queue slot, and one-query
// batches, surplus requests must be rejected 429 with Retry-After instead
// of piling up.
func TestBackpressure(t *testing.T) {
	idx := testIndex(t, 500, 30)
	slow := &slowIndex{Index: idx, gate: make(chan struct{})}
	srv := New(slow, WithQueueDepth(1), WithExecutors(1), WithMaxBatch(1), WithCoalesceWindow(0))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := queryBody(t, testQueries(1, 31)[0])
	results := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			results <- resp.StatusCode
		}()
	}
	// Give the requests time to pile into the (wedged) pipeline, then open
	// the gate so the survivors complete.
	time.Sleep(100 * time.Millisecond)
	close(slow.gate)
	wg.Wait()
	close(results)
	ok, rejected := 0, 0
	for code := range results {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if rejected == 0 {
		t.Fatal("no request was rejected: backpressure did not engage")
	}
	if ok == 0 {
		t.Fatal("every request was rejected: admission accepted nothing")
	}
	if st := srv.Statz(); st.Endpoints["topk"].Rejected != uint64(rejected) {
		t.Fatalf("statz rejected=%d, observed %d", st.Endpoints["topk"].Rejected, rejected)
	}
}

// TestRequestTimeout: a request whose deadline cannot be met answers 503.
func TestRequestTimeout(t *testing.T) {
	idx := testIndex(t, 500, 32)
	slow := &slowIndex{Index: idx, gate: make(chan struct{})}
	srv := New(slow, WithRequestTimeout(30*time.Millisecond))
	defer func() {
		close(slow.gate) // release the wedged executor before teardown
		srv.Close()
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := queryBody(t, testQueries(1, 33)[0])
	status, out := post(t, ts.Client(), ts.URL+"/v1/topk", body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, out)
	}
}
