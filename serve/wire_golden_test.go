package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"
)

// TestReplWireGolden pins, byte for byte, every place a node states its
// replication position to a peer: the manifest, the freshness header on a
// leader write ack and on a follower read, /statz repl_lsns, the promote
// response and the /metrics gauge. Peers of other versions and the
// repository benchmark parse exactly these bytes — an index is one stream
// at one LSN, and the wire says so with one-element arrays and shard "0".
func TestReplWireGolden(t *testing.T) {
	leader := New(walTestIndex(t, 300, 71))
	defer leader.Close()
	leader.serverID = "golden"
	lts := httptest.NewServer(leader.Handler())
	defer lts.Close()

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
		}
		return body
	}
	same := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Fatalf("%s:\ngot  %q\nwant %q", what, got, want)
		}
	}
	// field returns the raw bytes of one top-level /statz field.
	field := func(url, name string) []byte {
		t.Helper()
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(get(url), &doc); err != nil {
			t.Fatal(err)
		}
		return doc[name]
	}

	// Three inserts: the leader's position is LSN 3 from here on, and the
	// last ack says so.
	var ack *http.Response
	for i := 0; i < 3; i++ {
		var err error
		ack, err = http.Post(lts.URL+"/v1/insert", "application/json",
			bytes.NewReader([]byte(`{"point":[0.1,0.2,0.3,0.4]}`)))
		if err != nil || ack.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %v %v", i, ack, err)
		}
		ack.Body.Close()
	}
	same("leader write ack "+headerReplLSNs, []byte(ack.Header.Get(headerReplLSNs)), "3")
	same("manifest", get(lts.URL+"/v1/repl/manifest"),
		`{"format":"sd-repl/v1","source":"golden-1","shards":1,"dims":4,"lsns":[3]}`+"\n")
	same("leader statz repl_lsns", field(lts.URL+"/statz", "repl_lsns"), "[3]")

	follower, err := NewFollower(lts.URL, WithFollowInterval(10*time.Millisecond), WithPromotionWALDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()
	waitCaughtUp(t, leader, follower)

	read, err := http.Post(fts.URL+"/v1/topk", "application/json", bytes.NewReader(queryBody(t, testQueries(1, 72)[0])))
	if err != nil || read.StatusCode != http.StatusOK {
		t.Fatalf("follower read: %v %v", read, err)
	}
	read.Body.Close()
	same("follower read "+headerReplLSNs, []byte(read.Header.Get(headerReplLSNs)), "3")
	same("follower statz repl_lsns", field(fts.URL+"/statz", "repl_lsns"), "[3]")
	same("follower metrics gauge",
		regexp.MustCompile(`(?m)^sdserver_repl_lsn.*$`).Find(get(fts.URL+"/metrics")),
		`sdserver_repl_lsn{shard="0"} 3`)

	status, body := post(t, http.DefaultClient, fts.URL+"/v1/admin/promote", []byte(`{"generation":1}`))
	if status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, body)
	}
	same("promote response", body, `{"promoted":true,"generation":1,"durable":true,"lsns":[3]}`+"\n")
}
