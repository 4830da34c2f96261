package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
	"repro/serve"
)

func testRoles() []sdquery.Role {
	return []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
}

func queryBody(t *testing.T, q sdquery.Query) []byte {
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

// clusterFromRows partitions rows by the router's own rendezvous table and
// serves each partition from its own serve.Server, returning the router and
// the partition servers.
func clusterFromRows(t *testing.T, data [][]float64, names []string, slots int) (*Router, []*httptest.Server) {
	t.Helper()
	table, err := rendezvousOwners(names, slots)
	if err != nil {
		t.Fatal(err)
	}
	partRows := make([][][]float64, len(names))
	partIDs := make([][]int, len(names))
	for id, row := range data {
		pi := table[id%slots]
		partRows[pi] = append(partRows[pi], row)
		partIDs[pi] = append(partIDs[pi], id)
	}
	servers := make([]*httptest.Server, len(names))
	cfg := Config{Slots: slots, Seed: 1, Retries: 1, BackoffBase: 5 * time.Millisecond, TryTimeout: 5 * time.Second}
	for pi, name := range names {
		idx, err := sdquery.NewShardedIndexWithIDs(partRows[pi], partIDs[pi], testRoles(), sdquery.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		s := serve.New(idx)
		t.Cleanup(s.Close)
		servers[pi] = httptest.NewServer(s.Handler())
		t.Cleanup(servers[pi].Close)
		cfg.Partitions = append(cfg.Partitions, Partition{Name: name, Leader: servers[pi].URL})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, servers
}

// TestScatterGatherByteIdentity pins the distribution contract: the
// router's merged answer over partitioned rows is byte-identical to a
// single node holding every row.
func TestScatterGatherByteIdentity(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 4_000, len(testRoles()), 51)

	oracle, err := sdquery.NewShardedIndex(data, testRoles(), sdquery.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	os := serve.New(oracle)
	defer os.Close()
	ots := httptest.NewServer(os.Handler())
	defer ots.Close()

	rt, _ := clusterFromRows(t, data, []string{"alpha", "beta", "gamma"}, 64)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	client := &http.Client{}
	for qi, q := range testQueries(40, 52) {
		body := queryBody(t, q)
		oresp, err := client.Post(ots.URL+"/v1/topk", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ob, _ := readAllBounded(oresp.Body)
		oresp.Body.Close()
		rresp, err := client.Post(rts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := readAllBounded(rresp.Body)
		rresp.Body.Close()
		if oresp.StatusCode != http.StatusOK || rresp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status oracle %d router %d: %s", qi, oresp.StatusCode, rresp.StatusCode, rb)
		}
		if !bytes.Equal(ob, rb) {
			t.Fatalf("query %d diverged:\noracle %s\nrouter %s", qi, ob, rb)
		}
	}

	// Batch path too.
	qs := testQueries(7, 53)
	wq := make([]json.RawMessage, len(qs))
	for i, q := range qs {
		wq[i] = queryBody(t, q)
	}
	bb, _ := json.Marshal(map[string]any{"queries": wq})
	oresp, _ := client.Post(ots.URL+"/v1/batch", "application/json", bytes.NewReader(bb))
	ob, _ := readAllBounded(oresp.Body)
	oresp.Body.Close()
	rresp, _ := client.Post(rts.URL+"/v1/batch", "application/json", bytes.NewReader(bb))
	rb, _ := readAllBounded(rresp.Body)
	rresp.Body.Close()
	if !bytes.Equal(ob, rb) {
		t.Fatalf("batch diverged:\noracle %s\nrouter %s", ob, rb)
	}
}

// TestRouterWriteAndRead drives writes through the router (which assigns
// IDs and routes to owners) and verifies the written points come back in
// reads, identically to an oracle receiving the same logical inserts.
func TestRouterWriteAndRead(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 1_000, len(testRoles()), 61)
	rt, _ := clusterFromRows(t, data, []string{"a", "b"}, 32)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	extra := dataset.Generate(dataset.Uniform, 40, len(testRoles()), 62)
	ids := make([]int, len(extra))
	for i, row := range extra {
		b, _ := json.Marshal(map[string]any{"point": row})
		resp, err := client.Post(rts.URL+"/v1/insert", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var ir struct {
			ID int `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %d %v", i, resp.StatusCode, err)
		}
		resp.Body.Close()
		ids[i] = ir.ID
		if ir.ID < len(data) {
			t.Fatalf("assigned id %d collides with the seeded space %d", ir.ID, len(data))
		}
		// Retrying the exact same {id, point} must be a duplicate 200.
		rb, _ := json.Marshal(map[string]any{"point": row, "id": ir.ID})
		retry, err := client.Post(rts.URL+"/v1/insert", "application/json", bytes.NewReader(rb))
		if err != nil {
			t.Fatal(err)
		}
		retry.Body.Close()
		if retry.StatusCode != http.StatusOK {
			t.Fatalf("idempotent retry of id %d: status %d", ir.ID, retry.StatusCode)
		}
	}
	// IDs are unique and ascending.
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}

	// Oracle receives the same rows (IDs implicit: seeded space then extras
	// in order — the router allocated exactly those).
	oracle, err := sdquery.NewShardedIndex(append(append([][]float64{}, data...), extra...), testRoles(), sdquery.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	osrv := serve.New(oracle)
	defer osrv.Close()
	ots := httptest.NewServer(osrv.Handler())
	defer ots.Close()

	for qi, q := range testQueries(20, 63) {
		body := queryBody(t, q)
		oresp, _ := client.Post(ots.URL+"/v1/topk", "application/json", bytes.NewReader(body))
		ob, _ := readAllBounded(oresp.Body)
		oresp.Body.Close()
		rresp, _ := client.Post(rts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
		rb, _ := readAllBounded(rresp.Body)
		rresp.Body.Close()
		if !bytes.Equal(ob, rb) {
			t.Fatalf("query %d after writes diverged:\noracle %s\nrouter %s", qi, ob, rb)
		}
	}

	// Remove through the router, verify on both sides.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", rts.URL, ids[0]), nil)
	resp, err := client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	oracle.Remove(ids[0])
	q := testQueries(1, 64)[0]
	q.K = 2000
	body := queryBody(t, q)
	oresp, _ := client.Post(ots.URL+"/v1/topk", "application/json", bytes.NewReader(body))
	ob, _ := readAllBounded(oresp.Body)
	oresp.Body.Close()
	rresp, _ := client.Post(rts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
	rb, _ := readAllBounded(rresp.Body)
	rresp.Body.Close()
	if !bytes.Equal(ob, rb) {
		t.Fatal("post-remove answers diverged")
	}
}

// TestConcurrentInsertsNeverSpuriously409 pins the write-ordering fix:
// concurrent router inserts get ascending IDs, and without per-partition
// ordering a higher ID could commit before a lower one reached the same
// leader, making the lower insert die with a spurious 409 against an empty
// gap slot. Every concurrent insert must succeed, and every one must be
// verifiably committed under its assigned ID.
func TestConcurrentInsertsNeverSpuriously409(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 200, len(testRoles()), 91)
	rt, _ := clusterFromRows(t, data, []string{"a", "b"}, 32)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	extra := dataset.Generate(dataset.Uniform, 64, len(testRoles()), 92)
	ids := make([]int, len(extra))
	statuses := make([]int, len(extra))
	bodies := make([]string, len(extra))
	var wg sync.WaitGroup
	for i := range extra {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"point": extra[i]})
			resp, err := client.Post(rts.URL+"/v1/insert", "application/json", bytes.NewReader(b))
			if err != nil {
				statuses[i] = -1
				bodies[i] = err.Error()
				return
			}
			rb, _ := readAllBounded(resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i] = string(rb)
			var ir struct {
				ID int `json:"id"`
			}
			if json.Unmarshal(rb, &ir) == nil {
				ids[i] = ir.ID
			}
		}(i)
	}
	wg.Wait()

	seen := make(map[int]bool, len(ids))
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("concurrent insert %d: status %d body %s", i, st, bodies[i])
		}
		if seen[ids[i]] {
			t.Fatalf("id %d assigned twice", ids[i])
		}
		seen[ids[i]] = true
	}

	// Each insert truly committed under its ID: retrying the identical
	// {id, point} must be a duplicate 200. A lost write would answer 409
	// (the ID space grew past it, but the slot holds nothing).
	for i := range extra {
		rb, _ := json.Marshal(map[string]any{"point": extra[i], "id": ids[i]})
		resp, err := client.Post(rts.URL+"/v1/insert", "application/json", bytes.NewReader(rb))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAllBounded(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retry of committed id %d: status %d body %s", ids[i], resp.StatusCode, body)
		}
	}
}

// TestBatchRejectsStats pins that /v1/batch refuses stats=true loudly, like
// /v1/topk does: per-node counters do not merge, and silently dropping the
// stats would break the byte-identity contract.
func TestBatchRejectsStats(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 500, len(testRoles()), 95)
	rt, _ := clusterFromRows(t, data, []string{"a", "b"}, 32)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	qs := testQueries(2, 96)
	wq := make([]json.RawMessage, len(qs))
	for i, q := range qs {
		wq[i] = queryBody(t, q)
	}
	// Flip stats on the second query only.
	var m map[string]any
	if err := json.Unmarshal(wq[1], &m); err != nil {
		t.Fatal(err)
	}
	m["stats"] = true
	wq[1], _ = json.Marshal(m)
	bb, _ := json.Marshal(map[string]any{"queries": wq})

	resp, err := http.Post(rts.URL+"/v1/batch", "application/json", bytes.NewReader(bb))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllBounded(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with stats=true: status %d body %s, want 400", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("stats")) {
		t.Fatalf("400 body does not name stats: %s", body)
	}
}

// TestTerminalReadStatusRelayed pins that a node's terminal verdict on the
// read path keeps its status code and body through the router instead of
// collapsing to a generic 400.
func TestTerminalReadStatusRelayed(t *testing.T) {
	const nodeBody = `{"error":"payload too large"}` + "\n"
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.Write([]byte(nodeBody))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	node := httptest.NewServer(mux)
	defer node.Close()

	rt, err := New(Config{
		Partitions: []Partition{{Name: "solo", Leader: node.URL}},
		Slots:      8, Seed: 1, Retries: 1,
		BackoffBase: time.Millisecond, TryTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	body := queryBody(t, testQueries(1, 97)[0])
	resp, err := http.Post(rts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAllBounded(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("relayed status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if string(got) != nodeBody {
		t.Fatalf("relayed body %q, want %q", got, nodeBody)
	}
}

// TestAllowPartialContract kills one partition: plain reads must fail fast
// with 503 (never a silently incomplete answer), and allow_partial=1 must
// answer with the survivors plus the degraded marker.
func TestAllowPartialContract(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 2_000, len(testRoles()), 71)
	rt, servers := clusterFromRows(t, data, []string{"a", "b", "c"}, 48)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	servers[1].Close() // partition b is gone

	q := testQueries(1, 72)[0]
	body := queryBody(t, q)
	resp, err := client.Post(rts.URL+"/v1/topk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read with a dead partition: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	presp, err := client.Post(rts.URL+"/v1/topk?allow_partial=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := readAllBounded(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("allow_partial read: status %d %s", presp.StatusCode, pb)
	}
	var tr struct {
		Results  []wireResult `json:"results"`
		Degraded bool         `json:"degraded"`
	}
	if err := json.Unmarshal(pb, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Degraded {
		t.Fatalf("partial response not marked degraded: %s", pb)
	}
	if len(tr.Results) == 0 {
		t.Fatal("partial response has no results from the surviving partitions")
	}

	// Batches have no partial mode: the same opt-in on /v1/batch still
	// answers 503, never a silently incomplete batch.
	bb, _ := json.Marshal(map[string]any{"queries": []json.RawMessage{body}})
	bresp, err := client.Post(rts.URL+"/v1/batch?allow_partial=1", "application/json", bytes.NewReader(bb))
	if err != nil {
		t.Fatal(err)
	}
	bout, _ := readAllBounded(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("allow_partial batch with a dead partition: status %d, want 503: %s", bresp.StatusCode, bout)
	}
	if bresp.Header.Get("Retry-After") == "" {
		t.Fatal("batch 503 without Retry-After")
	}
}

// TestHugeKRouted pins that a client's k sizes nothing in the router: a k
// far beyond every row (and beyond memory, were it allocated) answers 200
// with every row, byte-identical to a single node, on /v1/topk and
// /v1/batch.
func TestHugeKRouted(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 300, len(testRoles()), 98)
	oracle, err := sdquery.NewShardedIndex(data, testRoles())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	osrv := serve.New(oracle)
	defer osrv.Close()
	ots := httptest.NewServer(osrv.Handler())
	defer ots.Close()
	rt, _ := clusterFromRows(t, data, []string{"a", "b"}, 32)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	q := testQueries(1, 99)[0]
	q.K = 1 << 40
	topk := queryBody(t, q)
	batch, _ := json.Marshal(map[string]any{"queries": []json.RawMessage{topk, topk}})
	client := &http.Client{}
	for _, ep := range []struct {
		path string
		body []byte
	}{{"/v1/topk", topk}, {"/v1/batch", batch}} {
		ostatus, ob := postBody(t, client, ots.URL+ep.path, ep.body)
		rstatus, rb := postBody(t, client, rts.URL+ep.path, ep.body)
		if ostatus != http.StatusOK || rstatus != http.StatusOK {
			t.Fatalf("%s with k = 1<<40: status oracle %d router %d: %s", ep.path, ostatus, rstatus, rb)
		}
		if !bytes.Equal(ob, rb) {
			t.Fatalf("%s with k = 1<<40 diverged:\noracle %s\nrouter %s", ep.path, ob, rb)
		}
	}
	var tr struct {
		Results []wireResult `json:"results"`
	}
	_, rb := postBody(t, client, rts.URL+"/v1/topk", topk)
	if err := json.Unmarshal(rb, &tr); err != nil || len(tr.Results) != len(data) {
		t.Fatalf("k = 1<<40 returned %d rows (%v), want all %d", len(tr.Results), err, len(data))
	}
}

// TestRendezvousStableUnderMembershipChange pins the rendezvous property
// this scheme is chosen for: adding a partition only moves the slots it
// wins, and removing one only moves the slots it owned.
func TestRendezvousStableUnderMembershipChange(t *testing.T) {
	const slots = 256
	names3 := []string{"a", "b", "c"}
	names4 := []string{"a", "b", "c", "d"}

	t3, err := rendezvousOwners(names3, slots)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := rendezvousOwners(names4, slots)
	if err != nil {
		t.Fatal(err)
	}
	movedToNew, movedElsewhere := 0, 0
	for s := range t3 {
		if t3[s] == t4[s] {
			continue
		}
		if names4[t4[s]] == "d" {
			movedToNew++
		} else {
			movedElsewhere++
		}
	}
	if movedElsewhere != 0 {
		t.Fatalf("adding a partition moved %d slots between existing partitions", movedElsewhere)
	}
	if movedToNew == 0 {
		t.Fatal("the added partition won no slots (weight function broken)")
	}

	// Removal: drop "b"; slots not owned by b must keep their owner.
	names2 := []string{"a", "c"}
	t2, err := rendezvousOwners(names2, slots)
	if err != nil {
		t.Fatal(err)
	}
	for s := range t3 {
		owner3 := names3[t3[s]]
		if owner3 == "b" {
			continue
		}
		if names2[t2[s]] != owner3 {
			t.Fatalf("slot %d moved from %s to %s when unrelated partition b left", s, owner3, names2[t2[s]])
		}
	}

	// Determinism across calls.
	t3b, _ := rendezvousOwners(names3, slots)
	for s := range t3 {
		if t3[s] != t3b[s] {
			t.Fatal("rendezvous table is not deterministic")
		}
	}
}

// referenceMerge is the obviously-correct merge: concatenate and sort.
func referenceMerge(lists [][]wireResult, k int) []wireResult {
	var all []wireResult
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return resultLess(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestMergeTopKAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		nLists := 1 + rng.Intn(5)
		lists := make([][]wireResult, nLists)
		id := 0
		for i := range lists {
			n := rng.Intn(12)
			for j := 0; j < n; j++ {
				lists[i] = append(lists[i], wireResult{ID: id, Score: float64(rng.Intn(20)) / 4})
				id++
			}
			sort.SliceStable(lists[i], func(a, b int) bool { return resultLess(lists[i][a], lists[i][b]) })
		}
		k := 1 + rng.Intn(15)
		got := mergeTopK(lists, k)
		want := referenceMerge(lists, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// FuzzMerge feeds arbitrary partition-merge inputs through mergeTopK and
// checks it against the reference merge — the fuzz target the CI chaos step
// seeds. The input encodes lists as a byte stream: list lengths then
// (id, score-numerator) pairs.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 5}, 3)
	f.Add([]byte{1, 0}, 1)
	f.Add([]byte{4, 2, 2, 2, 2, 9, 9, 9, 9}, 7)
	f.Add([]byte{}, 5)
	f.Add([]byte{255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2)
	f.Add([]byte{1, 3, 1, 5}, 1<<40) // a client k no router may allocate
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		if k < 1 {
			return
		}
		// Decode a deterministic list-of-lists from the raw bytes.
		var lists [][]wireResult
		i := 0
		id := 0
		for i < len(raw) && len(lists) < 8 {
			n := int(raw[i]) % 16
			i++
			var l []wireResult
			for j := 0; j < n && i < len(raw); j++ {
				l = append(l, wireResult{ID: id, Score: float64(int(raw[i])%32) / 8})
				id++
				i++
			}
			sort.SliceStable(l, func(a, b int) bool { return resultLess(l[a], l[b]) })
			lists = append(lists, l)
		}
		got := mergeTopK(lists, k)
		want := referenceMerge(lists, k)
		if len(got) != len(want) {
			t.Fatalf("merge returned %d results, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pos %d: %+v want %+v", i, got[i], want[i])
			}
		}
		// Order invariant: output is sorted by the global order.
		for i := 1; i < len(got); i++ {
			if resultLess(got[i], got[i-1]) {
				t.Fatalf("output out of order at %d", i)
			}
		}
	})
}

// TestLatRingQuantileZeroAllocs: a routed read asks each partition's ring
// for three quantiles (two to balance, one to time the hedge), so quantile
// must answer from a full window without allocating.
func TestLatRingQuantileZeroAllocs(t *testing.T) {
	var l latRing
	for _, i := range rand.New(rand.NewSource(1)).Perm(latWindow) {
		l.observe(time.Duration(i+1) * time.Millisecond)
	}
	if got := l.quantile(0.5); got != 33*time.Millisecond {
		t.Fatalf("median of 1..64 ms = %v, want 33ms", got)
	}
	if got := l.quantile(0.99); got != 64*time.Millisecond {
		t.Fatalf("p99 of 1..64 ms = %v, want 64ms", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.quantile(0.99) }); allocs != 0 {
		t.Fatalf("quantile allocates %.1f times per call, want 0", allocs)
	}
}
