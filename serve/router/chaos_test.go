package router

// The chaos differential suite: a real multi-node cluster (WAL-backed
// leaders, live followers, the router in front) with netfault proxies on
// every client-facing and replication link, driven while nodes are killed,
// partitioned, and reset mid-response. The oracle is a single node holding
// exactly the acked rows; every non-degraded answer the router returns must
// be byte-identical to it. The three invariants under test:
//
//   1. Failover correctness: after the leader dies, reads keep flowing from
//      the caught-up replica and every acked write is still visible.
//   2. No silently wrong answers: a replica frozen behind a partition never
//      serves a read that misses acked writes — the freshness gate routes
//      around it.
//   3. No duplicated side effects: a write whose ack dies mid-body resolves
//      by idempotent retry under the same ID, never by a second row.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
	"repro/internal/netfault"
	"repro/serve"
)

// chaosNode is one server plus the fault proxy the router reaches it
// through.
type chaosNode struct {
	srv   *serve.Server
	ts    *httptest.Server
	proxy *netfault.Proxy
}

func (n *chaosNode) url() string { return "http://" + n.proxy.Addr() }

// proxied wraps an httptest server in a netfault proxy.
func proxied(t *testing.T, ts *httptest.Server) *netfault.Proxy {
	t.Helper()
	p, err := netfault.New(ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// chaosLeader builds a WAL-backed leader over the given rows/IDs.
func chaosLeader(t *testing.T, rows [][]float64, ids []int) *chaosNode {
	t.Helper()
	idx, err := sdquery.NewShardedIndexWithIDs(rows, ids, testRoles(),
		sdquery.WithShards(2), sdquery.WithWAL(t.TempDir()), sdquery.WithSyncPolicy(sdquery.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	s := serve.New(idx)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &chaosNode{srv: s, ts: ts, proxy: proxied(t, ts)}
}

// chaosFollower builds a follower replicating from leaderURL.
func chaosFollower(t *testing.T, leaderURL string, opts ...serve.Option) *chaosNode {
	t.Helper()
	s, err := serve.NewFollower(leaderURL, append([]serve.Option{serve.WithFollowInterval(20 * time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &chaosNode{srv: s, ts: ts, proxy: proxied(t, ts)}
}

// oracleRows tracks the acked logical state of the cluster.
type oracleRows struct {
	rows map[int][]float64
}

func newOracle(data [][]float64, ids []int) *oracleRows {
	o := &oracleRows{rows: make(map[int][]float64, len(data))}
	for i, id := range ids {
		o.rows[id] = data[i]
	}
	return o
}

func (o *oracleRows) put(id int, row []float64) { o.rows[id] = row }

// server materializes the acked state as a single-node index and serves it.
func (o *oracleRows) server(t *testing.T) *httptest.Server {
	t.Helper()
	ids := make([]int, 0, len(o.rows))
	for id := range o.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = o.rows[id]
	}
	idx, err := sdquery.NewShardedIndexWithIDs(rows, ids, testRoles(), sdquery.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	s := serve.New(idx)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postBody posts and returns (status, body).
func postBody(t *testing.T, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, _ := readAllBounded(resp.Body)
	return resp.StatusCode, data
}

// ackInsert writes {id, point} through the router, retrying until the
// cluster proves the row committed (200). A mid-flight fault can leave one
// attempt ambiguous; the same-ID retry is exactly the resolution protocol
// the router's design prescribes, so the loop terminates as soon as any
// attempt — past or present — actually landed.
func ackInsert(t *testing.T, client *http.Client, routerURL string, id int, row []float64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"id": id, "point": row})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		status, data := postBody(t, client, routerURL+"/v1/insert", body)
		if status == http.StatusOK {
			return
		}
		if status == http.StatusConflict {
			t.Fatalf("insert id %d: 409 — a retry was treated as a new row: %s", id, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("insert id %d never acked", id)
}

// compareReads runs queries against the router and the oracle and fails on
// any divergence. Returns how many router reads answered 200.
func compareReads(t *testing.T, client *http.Client, routerURL, oracleURL string, queries []sdquery.Query) int {
	t.Helper()
	okReads := 0
	for qi, q := range queries {
		body := queryBody(t, q)
		ostatus, ob := postBody(t, client, oracleURL+"/v1/topk", body)
		if ostatus != http.StatusOK {
			t.Fatalf("oracle query %d: status %d", qi, ostatus)
		}
		rstatus, rb := postBody(t, client, routerURL+"/v1/topk", body)
		if rstatus != http.StatusOK {
			continue
		}
		okReads++
		if !bytes.Equal(ob, rb) {
			t.Fatalf("query %d diverged from oracle:\noracle %s\nrouter %s", qi, ob, rb)
		}
	}
	return okReads
}

// TestChaosLeaderKillFailover kills a partition's leader mid-run and
// requires reads to keep flowing — byte-identical to the oracle — from the
// caught-up replica, with every acked write still visible.
func TestChaosLeaderKillFailover(t *testing.T) {
	const seedRows = 1_200
	const slots = 32
	names := []string{"p0", "p1"}
	table, err := rendezvousOwners(names, slots)
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 101)
	oracle := newOracle(data, seqIDs(seedRows))

	partRows := make([][][]float64, len(names))
	partIDs := make([][]int, len(names))
	for id, row := range data {
		pi := table[id%slots]
		partRows[pi] = append(partRows[pi], row)
		partIDs[pi] = append(partIDs[pi], id)
	}

	leaders := make([]*chaosNode, len(names))
	followers := make([]*chaosNode, len(names))
	cfg := Config{
		Slots: slots, Seed: 1,
		Retries: 3, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second, HealthInterval: 30 * time.Millisecond,
		FailAfter: 2, ReopenAfter: 300 * time.Millisecond,
		// This test pins the NON-promoted regime: the dead partition must
		// keep answering 503 for writes. TestChaosPromotionRestoresWrites
		// covers the automated-promotion path.
		PromoteAfter: time.Hour,
	}
	for pi, name := range names {
		leaders[pi] = chaosLeader(t, partRows[pi], partIDs[pi])
		// Followers replicate over the leader's direct (unfaulted) link;
		// this test faults the client-facing path.
		followers[pi] = chaosFollower(t, leaders[pi].ts.URL)
		cfg.Partitions = append(cfg.Partitions, Partition{
			Name: name, Leader: leaders[pi].url(), Replicas: []string{followers[pi].url()},
		})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	// Churn: 40 writes through the router under explicit IDs.
	extra := dataset.Generate(dataset.Uniform, 40, len(testRoles()), 102)
	for i, row := range extra {
		id := seedRows + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}

	// Quiesce: all followers caught up, then kill partition 0's leader hard
	// (new connections refused, in-flight ones reset).
	for pi := range names {
		waitCaughtUp(t, leaders[pi].srv, followers[pi].srv)
	}
	leaders[0].proxy.Refuse(true)
	leaders[0].proxy.KillActive()

	// Reads must fail over to the replica. The first attempt per query may
	// burn a retry on the dead leader; the answer must still come back 200
	// and byte-identical — no acked write may have vanished.
	osrv := oracle.server(t)
	queries := testQueries(30, 103)
	big := testQueries(1, 104)[0]
	big.K = seedRows + len(extra) + 10 // every live row, so any lost ack shows
	queries = append(queries, big)
	ok := compareReads(t, client, rts.URL, osrv.URL, queries)
	if ok != len(queries) {
		t.Fatalf("only %d/%d reads answered 200 after leader kill", ok, len(queries))
	}

	// Writes owned by the dead partition must answer 503 (unavailable), not
	// hang and not lie.
	var deadOwned int
	for id := seedRows + len(extra); ; id++ {
		if table[id%slots] == 0 {
			deadOwned = id
			break
		}
	}
	wbody, _ := json.Marshal(map[string]any{"id": deadOwned, "point": extra[0]})
	status, _ := postBody(t, client, rts.URL+"/v1/insert", wbody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("write to dead partition: status %d, want 503", status)
	}

	// The healthz endpoint reflects the ejected node once probes catch it.
	deadlineH := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(rts.URL + "/healthz")
		if err == nil {
			b, _ := readAllBounded(resp.Body)
			resp.Body.Close()
			if bytes.Contains(b, []byte("ejected")) {
				break
			}
		}
		if time.Now().After(deadlineH) {
			t.Fatal("dead leader never showed as ejected in /healthz")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosStaleReplicaNeverServes freezes a follower's replication link,
// advances the leader past it, and hammers hedged reads: the frozen replica
// must never supply an answer missing acked writes.
func TestChaosStaleReplicaNeverServes(t *testing.T) {
	const seedRows = 800
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 111)
	oracle := newOracle(data, seqIDs(seedRows))

	leader := chaosLeader(t, data, seqIDs(seedRows))
	// The follower replicates *through a proxy* so the test can freeze
	// replication without touching its client-facing side.
	replProxy := proxied(t, leader.ts)
	follower := chaosFollower(t, "http://"+replProxy.Addr())

	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url(), Replicas: []string{follower.url()}}},
		Slots:      16, Seed: 1,
		Retries: 3, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second, HealthInterval: 30 * time.Millisecond,
		FailAfter: 2, ReopenAfter: 300 * time.Millisecond,
		hedgeDelay: time.Millisecond, // hedge to the replica on nearly every read
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	waitCaughtUp(t, leader.srv, follower.srv)
	// Freeze replication, then advance the leader.
	replProxy.Partition(true, true)
	extra := dataset.Generate(dataset.Uniform, 25, len(testRoles()), 112)
	for i, row := range extra {
		id := seedRows + i
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}

	// Every read — many of them hedged onto the frozen replica — must match
	// the oracle that contains the new rows. The freshness gate is what
	// stands between this and a silently stale answer.
	osrv := oracle.server(t)
	queries := testQueries(30, 113)
	big := testQueries(1, 114)[0]
	big.K = seedRows + len(extra) + 10
	queries = append(queries, big)
	ok := compareReads(t, client, rts.URL, osrv.URL, queries)
	if ok != len(queries) {
		t.Fatalf("only %d/%d reads answered 200 with a frozen replica", ok, len(queries))
	}

	// Heal; the follower catches up and becomes servable again.
	replProxy.Partition(false, false)
	waitCaughtUp(t, leader.srv, follower.srv)
	if ok := compareReads(t, client, rts.URL, osrv.URL, testQueries(10, 115)); ok != 10 {
		t.Fatalf("only %d/10 reads after heal", ok)
	}
}

// TestChaosResetMidAckNoDuplicates kills the ack of every write mid-body
// and requires the retry protocol to converge on exactly one row per ID.
func TestChaosResetMidAckNoDuplicates(t *testing.T) {
	const seedRows = 300
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 121)
	oracle := newOracle(data, seqIDs(seedRows))
	leader := chaosLeader(t, data, seqIDs(seedRows))

	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url()}},
		Slots:      16, Seed: 1,
		Retries: 4, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second,
		// No probes during the test window: an armed reset must land on a
		// write ack, not a health check.
		HealthInterval: time.Hour,
		FailAfter:      100, // don't eject the leader for faults we inject
		ReopenAfter:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	client := &http.Client{}

	extra := dataset.Generate(dataset.Uniform, 10, len(testRoles()), 122)
	for i, row := range extra {
		id := seedRows + i
		// Arm: the next response from the leader dies after ~40 bytes —
		// mid-headers or mid-body, either way after the node may have
		// committed. The router (or this client) must resolve the
		// ambiguity by retrying the same ID.
		leader.proxy.ResetAfterResponseBytes(40)
		ackInsert(t, client, rts.URL, id, row)
		oracle.put(id, row)
	}

	// Exactly one row per ID: a k=everything read matches an oracle holding
	// one copy of each, and the node's total agrees.
	osrv := oracle.server(t)
	q := testQueries(1, 123)[0]
	q.K = seedRows + len(extra) + 50
	if ok := compareReads(t, client, rts.URL, osrv.URL, []sdquery.Query{q}); ok != 1 {
		t.Fatal("read after reset churn did not answer 200")
	}
	if got := leader.srv.Statz().IndexPoints; got != seedRows+len(extra) {
		t.Fatalf("node holds %d rows, want %d — a retry duplicated or lost a write", got, seedRows+len(extra))
	}
}

// waitCaughtUp polls until the follower's applied LSN vector covers the
// leader's (componentwise).
func waitCaughtUp(t *testing.T, leader, follower *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ls := leader.Statz().ReplLSNs
		fs := follower.Statz().ReplLSNs
		ok := len(ls) > 0 && len(ls) == len(fs)
		for i := range ls {
			ok = ok && fs[i] >= ls[i]
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: leader %v follower %v",
		leader.Statz().ReplLSNs, follower.Statz().ReplLSNs)
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
