package router

// Tests for automated leader failover (promotion/demotion), replica-aware
// read balancing, and the write-path regression fixes that rode along:
// explicit-ID allocator adoption, ack-idempotent deletes, and the batch
// terminal-verdict scan.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/serve"
)

// TestChaosPromotionRestoresWrites is the failover differential: a hard
// leader kill mid-churn must end with writes flowing again through an
// automatically promoted replica — no operator action — with every acked
// write still visible, and the old leader demoting cleanly (no split-brain)
// when it rejoins.
func TestChaosPromotionRestoresWrites(t *testing.T) {
	const seedRows = 1_000
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 131)
	oracle := newOracle(data, seqIDs(seedRows))

	leader := chaosLeader(t, data, seqIDs(seedRows))
	follower := chaosFollower(t, leader.ts.URL, serve.WithPromotionWALDir(t.TempDir()))

	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url(), Replicas: []string{follower.url()}}},
		Slots:      16, Seed: 1,
		Retries: 3, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second, HealthInterval: 25 * time.Millisecond,
		FailAfter: 2, ReopenAfter: 200 * time.Millisecond,
		PromoteAfter: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	// Churn before the kill, so the promotion gate has a real watermark to
	// respect, then let the follower catch up (a promotion may not lose any
	// of these acked writes).
	extra := dataset.Generate(dataset.Uniform, 30, len(testRoles()), 132)
	for i, row := range extra {
		id := seedRows + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}
	waitCaughtUp(t, leader.srv, follower.srv)

	// Hard kill: new connections refused, in-flight ones reset.
	leader.proxy.Refuse(true)
	leader.proxy.KillActive()

	// Write availability must come back on its own: ackInsert retries until
	// the cluster acks, which requires the router to detect the dead leader,
	// wait out PromoteAfter, and promote the follower.
	more := dataset.Generate(dataset.Uniform, 20, len(testRoles()), 133)
	for i, row := range more {
		id := seedRows + len(extra) + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}

	st := rt.Statz()
	if st.Promotions == 0 {
		t.Fatal("writes resumed without a recorded promotion")
	}
	if st.Partitions[0].Generation == 0 {
		t.Fatal("partition generation never advanced past 0")
	}
	if got := follower.srv.Follower(); got != "" {
		t.Fatalf("promoted node still follows %q", got)
	}
	if follower.srv.Generation() == 0 {
		t.Fatal("promoted node still at generation 0")
	}

	// Every read — served by the promoted leader — must be byte-identical
	// to the oracle holding exactly the acked rows, including a k=everything
	// query where any lost acked write would show.
	osrv := oracle.server(t)
	queries := testQueries(20, 134)
	big := testQueries(1, 135)[0]
	big.K = seedRows + len(extra) + len(more) + 10
	queries = append(queries, big)
	if ok := compareReads(t, client, rts.URL, osrv.URL, queries); ok != len(queries) {
		t.Fatalf("only %d/%d reads answered 200 after promotion", ok, len(queries))
	}

	// The old leader rejoins still believing itself the leader of a past
	// generation. The router must demote it — it re-bootstraps as a follower
	// of the new leader — rather than let two writers coexist.
	leader.proxy.Refuse(false)
	deadline := time.Now().Add(10 * time.Second)
	for leader.srv.Follower() == "" {
		if time.Now().After(deadline) {
			t.Fatal("rejoined old leader was never demoted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, want := leader.srv.Follower(), follower.url(); got != want {
		t.Fatalf("demoted node follows %q, want the promoted leader %q", got, want)
	}
	if leader.srv.Generation() == 0 {
		t.Fatal("demoted node still at generation 0 — the fence never moved")
	}
	// The node flips to following inside the demote handler, before the
	// router's demote call returns and bumps the counter — poll briefly.
	for rt.Statz().Demotions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no recorded demotion")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-demotion writes and reads: still one leader, still byte-identical.
	last := dataset.Generate(dataset.Uniform, 10, len(testRoles()), 136)
	for i, row := range last {
		id := seedRows + len(extra) + len(more) + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}
	osrv2 := oracle.server(t)
	big.K += len(last)
	if ok := compareReads(t, client, rts.URL, osrv2.URL, append(testQueries(10, 137), big)); ok != 11 {
		t.Fatal("reads after demotion did not all answer 200")
	}
}

// TestChaosDeleteAckIdempotent pins the remove ack-idempotency contract: a
// DELETE whose first attempt commits the tombstone but dies mid-ack must
// converge — through the router's same-ID retry — on 200 removed:true, the
// same answer the lost ack carried, not a success-shaped report of failure.
func TestChaosDeleteAckIdempotent(t *testing.T) {
	const seedRows = 300
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 141)
	leader := chaosLeader(t, data, seqIDs(seedRows))

	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url()}},
		Slots:      16, Seed: 1,
		Retries: 4, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second,
		// No probes during the window: the armed reset must land on the
		// delete ack, not a health check.
		HealthInterval: time.Hour,
		FailAfter:      100,
		ReopenAfter:    50 * time.Millisecond,
		PromoteAfter:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	del := func() (int, bool) {
		req, err := http.NewRequest(http.MethodDelete, rts.URL+"/v1/points/7", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := readAllBounded(resp.Body)
		var rm struct {
			Removed bool `json:"removed"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &rm); err != nil {
				t.Fatalf("decode remove ack: %v (%s)", err, body)
			}
		}
		return resp.StatusCode, rm.Removed
	}

	// Arm: the next response from the leader dies after ~40 bytes — after
	// the tombstone may have committed. The router's retry hits an
	// already-tombstoned ID and must report the delete's true outcome.
	leader.proxy.ResetAfterResponseBytes(40)
	status, removed := del()
	if status != http.StatusOK || !removed {
		t.Fatalf("delete through mid-ack reset: status %d removed=%v, want 200 removed=true", status, removed)
	}
	if got := leader.srv.Statz().IndexPoints; got != seedRows-1 {
		t.Fatalf("node holds %d rows after delete, want %d", got, seedRows-1)
	}

	// A client-level retry of the whole DELETE gets the same honest answer.
	status, removed = del()
	if status != http.StatusOK || !removed {
		t.Fatalf("retried delete: status %d removed=%v, want 200 removed=true", status, removed)
	}
}

// TestExplicitIDAdvancesAllocator pins the S1 fix: a committed
// client-supplied ID must lift the router's global ID allocator above it,
// or a later auto-allocated insert re-issues an ID the cluster has already
// promised to someone else.
func TestExplicitIDAdvancesAllocator(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 100, len(testRoles()), 151)
	rt, _ := clusterFromRows(t, data, []string{"solo"}, 16)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	rows := dataset.Generate(dataset.Uniform, 3, len(testRoles()), 152)

	// Seed the allocator first with a plain auto-allocated insert: the bug
	// only bites once the counter is live — a later seed scan would happen
	// to cover the explicit ID and hide it.
	seedBody, _ := json.Marshal(map[string]any{"point": rows[0]})
	if status, out := postBody(t, client, rts.URL+"/v1/insert", seedBody); status != http.StatusOK {
		t.Fatalf("seeding insert: status %d: %s", status, out)
	}

	const explicit = 5_000
	body, _ := json.Marshal(map[string]any{"id": explicit, "point": rows[1]})
	if status, out := postBody(t, client, rts.URL+"/v1/insert", body); status != http.StatusOK {
		t.Fatalf("explicit-id insert: status %d: %s", status, out)
	}

	// The next auto-allocated ID must mint above the explicit one; before
	// the fix the live counter never learned about it and the allocator was
	// marching straight at a guaranteed future collision.
	body2, _ := json.Marshal(map[string]any{"point": rows[2]})
	status, out := postBody(t, client, rts.URL+"/v1/insert", body2)
	if status != http.StatusOK {
		t.Fatalf("auto-id insert: status %d: %s", status, out)
	}
	var ins struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(out, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID <= explicit {
		t.Fatalf("auto-allocated id %d is not above the committed explicit id %d", ins.ID, explicit)
	}
}

// TestTerminalVerdictScan pins the S3 fix in both read handlers: every
// failed partition counts exactly once in partitionFailures, and a terminal
// 4xx from any partition is relayed even when another partition failed
// retryably first (handleBatch used to answer 503 for that mix).
func TestTerminalVerdictScan(t *testing.T) {
	newNode := func(status int, body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintln(w, body)
		}))
	}
	newRT := func(t *testing.T, parts []Partition) *Router {
		t.Helper()
		rt, err := New(Config{
			Partitions: parts,
			Slots:      8, Seed: 1,
			Retries:    -1, // one attempt — the verdicts are deterministic
			TryTimeout: time.Second,
			// Keep probes out of the way: this test pins handler logic.
			HealthInterval: time.Hour, FailAfter: 100, PromoteAfter: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	topk := []byte(`{"point":[0.5,0.5,0.5,0.5],"k":3,"roles":["r","a","r","a"],"weights":[1,1,1,1]}`)
	batch := []byte(fmt.Sprintf(`{"queries":[%s]}`, topk))

	t.Run("terminal after transient", func(t *testing.T) {
		// Partition 0 fails retryably, partition 1 answers a terminal 404:
		// both handlers must relay the 404, not mask it with 503.
		transient := newNode(http.StatusInternalServerError, `{"error":"boom"}`)
		defer transient.Close()
		terminal := newNode(http.StatusNotFound, `{"error":"no such thing"}`)
		defer terminal.Close()
		rt := newRT(t, []Partition{{Name: "a", Leader: transient.URL}, {Name: "b", Leader: terminal.URL}})
		rts := httptest.NewServer(rt.Handler())
		defer rts.Close()
		client := &http.Client{}

		for _, ep := range []struct {
			path string
			body []byte
		}{{"/v1/topk", topk}, {"/v1/batch", batch}} {
			status, out := postBody(t, client, rts.URL+ep.path, ep.body)
			if status != http.StatusNotFound {
				t.Fatalf("%s: status %d, want the terminal 404 relayed: %s", ep.path, status, out)
			}
			if !bytes.Contains(out, []byte("no such thing")) {
				t.Fatalf("%s: terminal body not relayed verbatim: %s", ep.path, out)
			}
		}
	})

	t.Run("every failed partition counts", func(t *testing.T) {
		// Terminal first, transient second: the early-relay path used to
		// stop counting at the terminal partition.
		terminal := newNode(http.StatusNotFound, `{"error":"gone"}`)
		defer terminal.Close()
		transient := newNode(http.StatusInternalServerError, `{"error":"boom"}`)
		defer transient.Close()
		rt := newRT(t, []Partition{{Name: "a", Leader: terminal.URL}, {Name: "b", Leader: transient.URL}})
		rts := httptest.NewServer(rt.Handler())
		defer rts.Close()
		client := &http.Client{}

		if status, _ := postBody(t, client, rts.URL+"/v1/topk", topk); status != http.StatusNotFound {
			t.Fatalf("topk status %d, want 404", status)
		}
		if got := rt.Statz().PartitionFailures; got != 2 {
			t.Fatalf("partitionFailures after topk = %d, want 2 (one per failed partition)", got)
		}
		if status, _ := postBody(t, client, rts.URL+"/v1/batch", batch); status != http.StatusNotFound {
			t.Fatalf("batch status %d, want 404", status)
		}
		if got := rt.Statz().PartitionFailures; got != 4 {
			t.Fatalf("partitionFailures after batch = %d, want 4", got)
		}
	})
}

// TestWriteQueueCancellationStorm hammers one partition's insert chain with
// concurrent turns whose holders randomly abandon while waiting (run under
// -race in CI). Invariants: the chain never wedges, turns never overlap,
// and the holders that do get their turn get it in strict enqueue order —
// the ordering contract that keeps retried inserts provably idempotent.
func TestWriteQueueCancellationStorm(t *testing.T) {
	p := &partition{name: "p0"}
	const n = 400
	rng := rand.New(rand.NewSource(7))
	abandon := make([]int, n) // 0 = hold, 1 = cancel now, 2 = cancel later
	for i := range abandon {
		abandon[i] = rng.Intn(3)
	}
	var mu sync.Mutex
	next := 0 // enqueue position, assigned with the enqueue under mu
	var order []int
	var holding atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mu.Lock()
			pos := next
			next++
			tk := p.enqueue()
			mu.Unlock()
			ctx := context.Background()
			if abandon[g] != 0 {
				cctx, cancel := context.WithCancel(ctx)
				if abandon[g] == 1 {
					cancel()
				} else {
					time.AfterFunc(time.Duration(g%7)*time.Millisecond, cancel)
				}
				defer cancel()
				ctx = cctx
			}
			if err := tk.await(ctx); err != nil {
				// Abandoned turns must release through the same path or
				// every later turn wedges behind them.
				tk.release()
				return
			}
			if holding.Add(1) != 1 {
				t.Errorf("turn %d granted while another turn was held", pos)
			}
			mu.Lock()
			order = append(order, pos)
			mu.Unlock()
			holding.Add(-1)
			tk.release()
		}(g)
	}
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("turns granted out of enqueue order: %d after %d", order[i], order[i-1])
		}
	}
	// The partition is not wedged: a fresh turn gets its go promptly.
	tk := p.enqueue()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := tk.await(ctx); err != nil {
		t.Fatalf("chain wedged after the storm: %v", err)
	}
	tk.release()
}

// TestBreakerHalfOpenReBuy pins the half-open discipline: a failed
// half-open probe re-stamps the trip time, buying a FULL ReopenAfter of
// ejection — not a free pass back into rotation.
func TestBreakerHalfOpenReBuy(t *testing.T) {
	n := &node{url: "http://test"}
	const failAfter = 2
	reopen := 300 * time.Millisecond

	n.fail(failAfter)
	n.fail(failAfter)
	if n.available(reopen) {
		t.Fatal("tripped breaker still admits traffic")
	}
	time.Sleep(reopen + 50*time.Millisecond)
	if !n.available(reopen) {
		t.Fatal("breaker never went half-open")
	}

	// The half-open probe fails: the node must be ejected for another full
	// window, measured from now.
	n.fail(failAfter)
	if n.available(reopen) {
		t.Fatal("failed half-open probe did not re-trip the breaker")
	}
	time.Sleep(reopen / 2)
	if n.available(reopen) {
		t.Fatal("re-tripped breaker reopened after only half a window")
	}
	time.Sleep(reopen/2 + 50*time.Millisecond)
	if !n.available(reopen) {
		t.Fatal("re-tripped breaker never reopened")
	}
	n.ok()
	if !n.healthy() {
		t.Fatal("ok() did not close the breaker")
	}
}

// TestReadBalancingHitsReplicas pins the load-balancing half of the
// tentpole: with every node healthy and hedging disabled, steady-state
// reads must reach the replica (replicaReads > 0) while every answer stays
// byte-identical to the oracle — the freshness gate still holds.
func TestReadBalancingHitsReplicas(t *testing.T) {
	const seedRows = 600
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 161)
	oracle := newOracle(data, seqIDs(seedRows))
	leader := chaosLeader(t, data, seqIDs(seedRows))
	follower := chaosFollower(t, leader.ts.URL)

	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url(), Replicas: []string{follower.url()}}},
		Slots:      16, Seed: 1,
		Retries: 2, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second, HealthInterval: 25 * time.Millisecond,
		FailAfter: 3, ReopenAfter: 300 * time.Millisecond,
		PromoteAfter: time.Hour,
		hedgeDelay:   -1, // no hedging: any replica read below is balancing
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	// Writes through the router raise the watermark, so the replica reads
	// below also exercise the freshness qualification, not an empty gate.
	extra := dataset.Generate(dataset.Uniform, 15, len(testRoles()), 162)
	for i, row := range extra {
		id := seedRows + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}
	waitCaughtUp(t, leader.srv, follower.srv)

	osrv := oracle.server(t)
	queries := testQueries(40, 163)
	if ok := compareReads(t, client, rts.URL, osrv.URL, queries); ok != len(queries) {
		t.Fatalf("only %d/%d balanced reads answered 200", ok, len(queries))
	}
	if got := rt.Statz().ReplicaReads; got == 0 {
		t.Fatal("no steady-state read ever reached the replica — balancing is not happening")
	}
}
