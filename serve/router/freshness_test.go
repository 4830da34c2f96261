package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestWatermarkWireGolden pins the bytes of the router's own freshness
// surface: /statz states a partition's write watermark as a one-element
// array holding the LSN of the last write ack, and omits it before any.
func TestWatermarkWireGolden(t *testing.T) {
	const seedRows = 200
	data := dataset.Generate(dataset.Uniform, seedRows, len(testRoles()), 171)
	leader := chaosLeader(t, data, seqIDs(seedRows))
	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: leader.url()}},
		Slots:      16, Seed: 1, TryTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	watermark := func() string {
		t.Helper()
		resp, err := http.Get(rts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Partitions []map[string]json.RawMessage `json:"partitions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || len(doc.Partitions) != 1 {
			t.Fatalf("router statz: %v %+v", err, doc)
		}
		return string(doc.Partitions[0]["write_watermark"])
	}
	if got := watermark(); got != "" {
		t.Fatalf("write_watermark before any write = %q, want it omitted", got)
	}
	for i, row := range dataset.Generate(dataset.Uniform, 3, len(testRoles()), 172) {
		ackInsert(t, http.DefaultClient, rts.URL, seedRows+i, row)
	}
	if got := watermark(); got != "[3]" {
		t.Fatalf("write_watermark after three acked writes = %q, want %q", got, "[3]")
	}
}

// TestMultiStreamPeerPositionUnknown: a node reporting anything but one LSN
// — the comma-separated header or the longer repl_lsns of a node from when
// an index was several replication streams, or nothing at all — has an
// unknown position. It is never read as its first element: not fresh for a
// read behind an acknowledged write, not a promotion candidate.
func TestMultiStreamPeerPositionUnknown(t *testing.T) {
	var header, statz atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/topk":
			if h := header.Load().(string); h != "" {
				w.Header().Set("X-SD-Repl-Lsns", h)
			}
			w.Write([]byte(`{"results":[]}`))
		case "/statz":
			w.Write([]byte(statz.Load().(string)))
		}
	}))
	defer peer.Close()
	rt, err := New(Config{
		Partitions: []Partition{{Name: "p0", Leader: peer.URL, Replicas: []string{peer.URL}}},
		Slots:      16, Seed: 1, TryTimeout: 2 * time.Second,
		PromoteAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	topo := rt.parts[0].topo.Load()
	replica := topo.replicas[0]

	for _, tc := range []struct {
		header, statz string
		hw            uint64
		fresh         bool
		lsn           uint64 // what replLSN reports; known says whether it reports at all
		known         bool
	}{
		{header: "5", statz: `{"repl_lsns":[5]}`, hw: 5, fresh: true, lsn: 5, known: true},
		{header: "4", statz: `{"repl_lsns":[4]}`, hw: 5, fresh: false, lsn: 4, known: true},
		{header: "7,9", statz: `{"repl_lsns":[7,9]}`, hw: 5, fresh: false},
		{header: "", statz: `{}`, hw: 5, fresh: false},
		{header: "7,9", statz: `{"repl_lsns":[]}`, hw: 0, fresh: true},
	} {
		header.Store(tc.header)
		statz.Store(tc.statz)
		_, err := rt.fetchOn(context.Background(), topo, replica, "/v1/topk", []byte(`{}`), tc.hw)
		if tc.fresh && err != nil || !tc.fresh && !errors.Is(err, errStale) {
			t.Errorf("header %q against watermark %d: err = %v, want fresh = %v", tc.header, tc.hw, err, tc.fresh)
		}
		lsn, err := rt.replLSN(context.Background(), replica)
		if (err == nil) != tc.known || lsn != tc.lsn {
			t.Errorf("statz %s: replLSN = %d, %v; want %d, known = %v", tc.statz, lsn, err, tc.lsn, tc.known)
		}
	}
}
