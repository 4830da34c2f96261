package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// hitWriter is the least a ResponseWriter can be: one reused header map and
// a byte count. The standard recorder allocates per response, which would
// drown the handler's own allocations.
type hitWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *hitWriter) Header() http.Header { return w.h }
func (w *hitWriter) WriteHeader(s int)   { w.status = s }
func (w *hitWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// hitRequest is a reusable POST /v1/topk: the body reader is rewound, not
// reallocated, between calls.
type hitRequest struct {
	req  *http.Request
	body *bytes.Reader
	raw  []byte
}

func newHitRequest(t testing.TB, raw []byte) *hitRequest {
	hr := &hitRequest{body: bytes.NewReader(raw), raw: raw}
	req, err := http.NewRequest(http.MethodPost, "/v1/topk", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(raw))
	hr.req = req
	return hr
}

func (hr *hitRequest) rewind() *http.Request {
	hr.body.Reset(hr.raw)
	hr.req.Body = io.NopCloser(hr.body)
	return hr.req
}

// warmHit serves the query until the result cache answers it (the first
// request computes and stores the answer).
func warmHit(t testing.TB, srv *Server, hr *hitRequest, w *hitWriter) {
	for i := 0; i < 64; i++ {
		before := srv.met.cacheHits.Load()
		srv.handleTopK(w, hr.rewind())
		if w.status != http.StatusOK {
			t.Fatalf("warm-up request: status %d", w.status)
		}
		if srv.met.cacheHits.Load() > before {
			return
		}
	}
	t.Fatal("query never became a cache hit")
}

func BenchmarkHandleTopKHit(b *testing.B) {
	idx := testIndex(b, 1_000, 9)
	srv := New(idx, WithResultCache(true))
	defer srv.Close()
	hr := newHitRequest(b, queryBody(b, testQueries(1, 3)[0]))
	w := &hitWriter{h: make(http.Header)}
	warmHit(b, srv, hr, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handleTopK(w, hr.rewind())
	}
}

// TestHandleTopKHitAllocs pins what a cache hit costs the handler end to
// end, next to TestCacheZeroAllocHit's pin on the cache itself: the body is
// read into a pooled buffer, the strict decoder is pooled, the key buffer is
// pooled, the Content-Type value is shared, and the stored body is written
// as is — what remains is encoding/json materializing the query (its
// slices and role strings) and the role conversion. A regression here taxes
// the path most requests of a hot workload take.
func TestHandleTopKHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	idx := testIndex(t, 1_000, 9)
	srv := New(idx, WithResultCache(true))
	defer srv.Close()
	hr := newHitRequest(t, queryBody(t, testQueries(1, 3)[0]))
	w := &hitWriter{h: make(http.Header)}
	warmHit(t, srv, hr, w)
	hits := srv.met.cacheHits.Load()
	allocs := testing.AllocsPerRun(200, func() {
		srv.handleTopK(w, hr.rewind())
	})
	if got := srv.met.cacheHits.Load() - hits; got < 200 {
		t.Fatalf("only %d of the measured requests were cache hits", got)
	}
	// 28 before the hit path was trimmed; the decode's own allocations vary
	// a little with the query's dimensionality, hence a ceiling.
	if allocs > 16 {
		t.Fatalf("a cache hit allocates %.0f times in the handler, want ≤ 16", allocs)
	}
}

// TestStrictDecodePooled holds the pooled decoder to a fresh one: whatever
// sequence of good, malformed, truncated, over-long and type-confused bodies
// went through the pool before, the next decode must produce exactly the
// value and exactly the error a new json.Decoder would.
func TestStrictDecodePooled(t *testing.T) {
	fresh := func(data []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return err
		}
		if len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
			return fmt.Errorf("trailing data after the JSON body")
		}
		return nil
	}
	bodies := []string{
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"]}`,
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"],"weights":[1,0.5],"stats":true}` + "\n",
		`  {"point":[1e-3,2E+2],"k":1,"roles":["repulsive","attractive"]}   `,
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"]} {"k":1}`,
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"]}]`,
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"],"bogus":1}`,
		`{"point":[0.1,0.9],"k":"five","roles":["r","a"]}`,
		`{"point":[0.1,0.9],"k":5.5,"roles":["r","a"]}`,
		`{"point":[0.1,0.9],"k":5,"roles":["r","a"]`,
		`{"point":[0.1,,0.9]}`,
		`{"POINT":[3],"K":2}`,
		`{"k":1,"k":2}`,
		`null`,
		`5`,
		`"x"`,
		`[]`,
		``,
		`   `,
		`{"point":[` + strings.Repeat("0.5,", 5000) + `0.5],"k":1,"roles":[]}`,
		`{"k":1}`,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		body := []byte(bodies[rng.Intn(len(bodies))])
		var got, want wireQuery
		gotErr, wantErr := strictDecode(body, &got), fresh(body, &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("step %d body %q: pooled decoder says %v, a fresh one %v", i, body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d body %q: pooled decoder produced %+v, a fresh one %+v", i, body, got, want)
		}
	}
}
