package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
)

// walTestIndex builds a WAL-backed two-segment index — the leader shape.
func walTestIndex(t *testing.T, n int, seed int64) *sdquery.ShardedIndex {
	t.Helper()
	data := dataset.Generate(dataset.Uniform, n, len(testRoles()), seed)
	idx, err := sdquery.NewShardedIndex(data, testRoles(),
		sdquery.WithShards(2), sdquery.WithWAL(t.TempDir()), sdquery.WithSyncPolicy(sdquery.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

// waitCaughtUp polls until the follower's applied LSN vector covers the
// leader's (componentwise), or fails the test.
func waitCaughtUp(t *testing.T, leader, follower *Server) {
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

// TestFollowerE2E runs the whole replication loop over real HTTP: bootstrap,
// live WAL tailing, byte-identical reads, role surfacing, and the follower's
// write refusal.
func TestFollowerE2E(t *testing.T) {
	idx := walTestIndex(t, 2_000, 11)
	leader := New(idx)
	defer leader.Close()
	lts := httptest.NewServer(leader.Handler())
	defer lts.Close()

	follower, err := NewFollower(lts.URL, WithFollowInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	// Churn on the leader after the follower bootstrapped: inserts and a
	// remove the follower must pick up through the WAL tail.
	rows := dataset.Generate(dataset.Uniform, 50, len(testRoles()), 12)
	for _, row := range rows {
		b, _ := json.Marshal(map[string]any{"point": row})
		if status, body := post(t, lts.Client(), lts.URL+"/v1/insert", b); status != http.StatusOK {
			t.Fatalf("leader insert: %d %s", status, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, lts.URL+"/v1/points/3", nil)
	if resp, err := lts.Client().Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("leader remove: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	waitCaughtUp(t, leader, follower)

	// Every read must be byte-identical across the two nodes.
	for _, q := range testQueries(25, 13) {
		body := queryBody(t, q)
		ls, lb := post(t, lts.Client(), lts.URL+"/v1/topk", body)
		fsStatus, fb := post(t, fts.Client(), fts.URL+"/v1/topk", body)
		if ls != http.StatusOK || fsStatus != http.StatusOK {
			t.Fatalf("topk status leader %d follower %d", ls, fsStatus)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("follower answer diverged:\nleader   %s\nfollower %s", lb, fb)
		}
	}

	// Follower responses carry the freshness vector; leader reads do not.
	resp, err := fts.Client().Post(fts.URL+"/v1/topk", "application/json", bytes.NewReader(queryBody(t, testQueries(1, 14)[0])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(headerReplLSNs) == "" {
		t.Fatal("follower topk response lacks the X-SD-Repl-Lsns header")
	}

	// Role surfacing: healthz and statz on both nodes.
	hresp, err := fts.Client().Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb bytes.Buffer
	hb.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(hb.String(), "role: follower") || !strings.Contains(hb.String(), "repl_lag_records") {
		t.Fatalf("follower healthz: %q", hb.String())
	}
	if got := leader.Statz().Role; got != "leader" {
		t.Fatalf("leader role %q", got)
	}
	fstz := follower.Statz()
	if fstz.Role != "follower" || fstz.Repl == nil || fstz.Repl.Leader != lts.URL {
		t.Fatalf("follower statz: %+v", fstz)
	}

	// Writes on the follower are refused with 503 + Retry-After + leader hint.
	b, _ := json.Marshal(map[string]any{"point": rows[0]})
	wresp, err := fts.Client().Post(fts.URL+"/v1/insert", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower insert status %d, want 503", wresp.StatusCode)
	}
	if wresp.Header.Get("Retry-After") == "" || wresp.Header.Get(headerLeader) != lts.URL {
		t.Fatalf("follower 503 lacks Retry-After/X-SD-Leader: %v", wresp.Header)
	}

	// /metrics reports the role and the lag series.
	mresp, err := fts.Client().Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`sdserver_role{role="follower"} 1`, "sdserver_repl_lag_records", "sdserver_repl_lsn{shard=\"0\"}"} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("follower metrics lack %q", want)
		}
	}
}

// TestFollowerRebootstrapOnSourceChange kills the leader server (losing its
// process identity) and brings a new one up on a fresh copy of the data at
// the same address — the follower must detect the source-token change and
// re-bootstrap instead of applying a foreign WAL tail.
func TestFollowerRebootstrapOnSourceChange(t *testing.T) {
	idx := walTestIndex(t, 1_000, 21)
	leader := New(idx)
	// The handler is swapped mid-test while the follower's pull loop keeps
	// requests in flight, so the indirection must be atomic.
	var handler atomic.Value
	handler.Store(leader.Handler())
	lts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))

	follower, err := NewFollower(lts.URL, WithFollowInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	defer follower.Close()
	waitCaughtUp(t, leader, follower)

	// Replace the leader behind the same URL: new server, new index, new
	// (divergent) history. httptest can't rebind the port, so route the old
	// listener's handler to the new server instead — to the follower this is
	// exactly a restarted leader at its configured address.
	idx2 := walTestIndex(t, 1_500, 22)
	leader2 := New(idx2)
	defer leader2.Close()
	handler.Store(leader2.Handler())
	leader.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := follower.Statz(); st.Repl != nil && st.Repl.Bootstraps > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := follower.Statz(); st.Repl == nil || st.Repl.Bootstraps == 0 {
		t.Fatalf("follower never re-bootstrapped: %+v", st.Repl)
	}
	waitCaughtUp(t, leader2, follower)

	q := testQueries(5, 23)
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()
	for _, query := range q {
		body := queryBody(t, query)
		_, lb := post(t, lts.Client(), lts.URL+"/v1/topk", body)
		_, fb := post(t, fts.Client(), fts.URL+"/v1/topk", body)
		if !bytes.Equal(lb, fb) {
			t.Fatalf("post-rebootstrap divergence:\nleader   %s\nfollower %s", lb, fb)
		}
	}
	lts.Close()
}

// TestInsertWithIDIdempotent pins the distributed-writer contract: the same
// {id, point} body acks 200 twice (the retry is a provable duplicate), and
// the same id with a different point is a 409 conflict.
func TestInsertWithIDIdempotent(t *testing.T) {
	idx := walTestIndex(t, 500, 31)
	s := New(idx)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := idx.Total() + 3 // a hole before it exercises the sparse path
	point := []float64{0.25, 0.5, 0.75, 1.0}
	body, _ := json.Marshal(map[string]any{"id": id, "point": point})
	for try := 0; try < 2; try++ {
		status, out := post(t, ts.Client(), ts.URL+"/v1/insert", body)
		if status != http.StatusOK {
			t.Fatalf("try %d: status %d %s", try, status, out)
		}
		var ir insertResponse
		if err := json.Unmarshal(out, &ir); err != nil || ir.ID != id {
			t.Fatalf("try %d: ack %s err %v", try, out, err)
		}
	}
	other, _ := json.Marshal(map[string]any{"id": id, "point": []float64{9, 9, 9, 9}})
	if status, _ := post(t, ts.Client(), ts.URL+"/v1/insert", other); status != http.StatusConflict {
		t.Fatalf("conflicting insert status %d, want 409", status)
	}
	// The occupied slot serves the original coordinates.
	if p, ok := idx.PointByID(id); !ok || !pointsEqual(p, point) {
		t.Fatalf("PointByID(%d) = %v %v", id, p, ok)
	}
}

// TestReplEndpointContract covers the leader endpoints directly: manifest
// shape, segment source stamping, and the 410 gap verdict.
func TestReplEndpointContract(t *testing.T) {
	idx := walTestIndex(t, 800, 41)
	s := New(idx)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/repl/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m replManifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// One engine, one stream: the manifest keeps its shape with a vector of 1.
	if m.Format != replFormat || m.Shards != 1 || m.Dims != 4 || len(m.LSNs) != 1 || m.Source == "" {
		t.Fatalf("manifest %+v", m)
	}

	sresp, err := ts.Client().Get(ts.URL + "/v1/repl/segment?shard=0")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || sresp.Header.Get(headerReplSource) != m.Source {
		t.Fatalf("segment: %d source %q want %q", sresp.StatusCode, sresp.Header.Get(headerReplSource), m.Source)
	}
	if bad, err := ts.Client().Get(ts.URL + "/v1/repl/segment?shard=1"); err != nil || bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range shard: %v %v", bad.StatusCode, err)
	} else {
		bad.Body.Close()
	}

	// A cursor ahead of the leader is a gap → 410 Gone.
	gone, err := ts.Client().Get(fmt.Sprintf("%s/v1/repl/wal?shard=0&from=%d", ts.URL, m.LSNs[0]+100))
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusGone {
		t.Fatalf("gapped tail status %d, want 410", gone.StatusCode)
	}
}

// TestFollowerRefusesMultiStreamLeader: a leader whose manifest describes
// anything but one replication stream (a node from when an index was one
// engine per shard) is refused at the manifest, with an error naming it and
// the count, before any snapshot is downloaded.
func TestFollowerRefusesMultiStreamLeader(t *testing.T) {
	for _, tc := range []struct {
		name, manifest string
		lsn            uint64 // the position a followable manifest reports
		refused        string // what the error must mention, "" = followable
	}{
		{name: "one stream", manifest: `"shards":1,"lsns":[7]`, lsn: 7},
		{name: "two streams", manifest: `"shards":2,"lsns":[7,9]`, refused: "2 replication streams"},
		{name: "one shard, two lsns", manifest: `"shards":1,"lsns":[7,9]`, refused: "(2 lsns)"},
		{name: "two shards, one lsn", manifest: `"shards":2,"lsns":[7]`, refused: "2 replication streams"},
		{name: "no stream", manifest: `"shards":0,"lsns":[]`, refused: "0 replication streams"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var segments atomic.Int32
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/repl/manifest" {
					fmt.Fprintf(w, `{"format":%q,"source":"peer-1","dims":4,%s}`, replFormat, tc.manifest)
					return
				}
				segments.Add(1)
				http.Error(w, "no snapshot here", http.StatusInternalServerError)
			}))
			defer peer.Close()
			f := &followerState{leaderURL: peer.URL, client: peer.Client()}

			if tc.refused == "" {
				if src, lsn, err := f.manifest(); err != nil || src != "peer-1" || lsn != tc.lsn {
					t.Fatalf("manifest() = %q, %d, %v", src, lsn, err)
				}
				return
			}
			_, _, err := f.bootstrap()
			if err == nil || !strings.Contains(err.Error(), peer.URL) || !strings.Contains(err.Error(), tc.refused) {
				t.Fatalf("bootstrap error %v, want one naming %s and %q", err, peer.URL, tc.refused)
			}
			if n := segments.Load(); n != 0 {
				t.Fatalf("%d snapshot requests reached a leader that cannot be followed", n)
			}
		})
	}
}

// TestPromoteRefusedWithoutWALDir: a follower started without
// WithPromotionWALDir refuses promotion with a 409 naming -promote-wal-dir,
// and stays a follower that keeps applying its leader's writes — it never
// becomes a leader that would acknowledge writes a crash loses.
func TestPromoteRefusedWithoutWALDir(t *testing.T) {
	leader := New(walTestIndex(t, 200, 81))
	defer leader.Close()
	lts := httptest.NewServer(leader.Handler())
	defer lts.Close()
	follower, err := NewFollower(lts.URL, WithFollowInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	status, body := post(t, http.DefaultClient, fts.URL+"/v1/admin/promote", []byte(`{"generation":1}`))
	if status != http.StatusConflict || !strings.Contains(string(body), "-promote-wal-dir") {
		t.Fatalf("promote without a WAL directory: %d %s, want 409 naming -promote-wal-dir", status, body)
	}
	if follower.Follower() != lts.URL || follower.Generation() != 0 {
		t.Fatalf("refused node follows %q at generation %d, want %q at 0", follower.Follower(), follower.Generation(), lts.URL)
	}
	if status, body := post(t, http.DefaultClient, lts.URL+"/v1/insert", []byte(`{"point":[0.1,0.2,0.3,0.4]}`)); status != http.StatusOK {
		t.Fatalf("leader insert: %d %s", status, body)
	}
	waitCaughtUp(t, leader, follower)
}
