package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	sdquery "repro"
	"repro/internal/query"
)

// JSON wire format. The binary Save/Load format (package sdquery) persists
// whole indexes; this is the per-request query format the HTTP API speaks.
//
// A query:
//
//	{"point": [0.1, 0.9], "k": 5,
//	 "roles": ["repulsive", "attractive"],   // or "r"/"a"/"i"
//	 "weights": [1, 0.5],                    // optional; default 1 per active dim
//	 "stats": true}                          // optional; include work counters
//
// A top-k response:
//
//	{"results": [{"id": 17, "score": 0.42}, ...],
//	 "stats": {"scored": 1410, "swept": 24910, ...}}   // only when requested
//
// Scores are encoded with encoding/json's shortest-roundtrip float
// formatting, so a response is byte-identical to encoding the results of a
// direct ShardedIndex.TopK call — the property the e2e golden tests pin.
// The stats counters are deterministic too: every query runs on one
// goroutine, so two identical requests at the same index epoch return
// byte-identical bodies (TestStatsDeterministic).
// Unknown fields are rejected: a typo'd knob fails loudly with a 400
// instead of being silently ignored.

// maxBodyBytes bounds every request body read; oversized requests fail with
// 400 before any decode work happens.
const maxBodyBytes = 8 << 20

type wireQuery struct {
	Point   []float64 `json:"point"`
	K       int       `json:"k"`
	Roles   []string  `json:"roles"`
	Weights []float64 `json:"weights"`
	Stats   bool      `json:"stats"`
}

type wireBatch struct {
	Queries []wireQuery `json:"queries"`
}

type wireInsert struct {
	Point []float64 `json:"point"`
	// ID optionally assigns the point's global ID (must be above every ID the
	// index has seen). Distributed writers use it to make insert retries
	// idempotent — see Server.insertWithID. Absent, the index assigns.
	ID *int `json:"id,omitempty"`
}

type wireSwap struct {
	Path string `json:"path"`
}

type wireResult struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type wireStats struct {
	Segments      int `json:"segments"`
	Scored        int `json:"scored"`
	Swept         int `json:"swept"`
	SweptSegments int `json:"swept_segments"`
	BlocksBounded int `json:"blocks_bounded"`
	BlocksSkipped int `json:"blocks_skipped"`
}

type topkResponse struct {
	Results []wireResult `json:"results"`
	Stats   *wireStats   `json:"stats,omitempty"`
}

type batchResponse struct {
	Results [][]wireResult `json:"results"`
}

type insertResponse struct {
	ID int `json:"id"`
}

type removeResponse struct {
	ID      int  `json:"id"`
	Removed bool `json:"removed"`
}

type swapResponse struct {
	Swapped bool `json:"swapped"`
	Points  int  `json:"points"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// parseRole maps a wire role name to the engine's Role. Both the long names
// and the one-letter forms cmd/sdquery uses are accepted, case-insensitively.
func parseRole(s string) (sdquery.Role, error) {
	switch strings.ToLower(s) {
	case "attractive", "a":
		return sdquery.Attractive, nil
	case "repulsive", "r":
		return sdquery.Repulsive, nil
	case "ignored", "i":
		return sdquery.Ignored, nil
	}
	return 0, fmt.Errorf("role %q: use attractive/a, repulsive/r, or ignored/i", s)
}

// decodeQuery parses and validates one wire query against the serving
// index's dimensionality. Validation here is deliberately complete — k,
// lengths, role names, weight domain, at least one active dimension — so a
// malformed request gets its own 400 and can never poison the coalesced
// batch it would have ridden in (the engine re-validates, but by then the
// query shares a BatchTopK call with innocent neighbors). This function is
// the fuzz target FuzzDecodeQuery.
func decodeQuery(data []byte, dims int) (sdquery.Query, bool, error) {
	var wq wireQuery
	if err := strictDecode(data, &wq); err != nil {
		return sdquery.Query{}, false, fmt.Errorf("decode query: %w", err)
	}
	q, err := wq.toQuery(dims)
	return q, wq.Stats, err
}

// strictDecoder is a pooled json.Decoder. encoding/json only rejects unknown
// fields through a Decoder, and a Decoder per request costs its own
// allocation, a reader, and a fresh read buffer the body is copied into;
// pooled, all three are paid once. The decoder reads from the strictDecoder
// itself, which serves one body after another: to the Decoder that is one
// long stream that delivers more after each EOF, which is how a stream
// decoder is meant to be fed.
type strictDecoder struct {
	data      []byte // the body being decoded
	off       int    // bytes of data delivered so far
	delivered int64  // bytes of all bodies delivered so far: data[0]'s stream offset is delivered-off
	dec       *json.Decoder
}

func (d *strictDecoder) Read(p []byte) (int, error) {
	if d.off == len(d.data) {
		return 0, io.EOF
	}
	n := copy(p, d.data[d.off:])
	d.off += n
	d.delivered += int64(n)
	return n, nil
}

var strictDecoders = sync.Pool{New: func() any {
	d := new(strictDecoder)
	d.dec = json.NewDecoder(d)
	d.dec.DisallowUnknownFields()
	return d
}}

// strictDecode decodes exactly one JSON value with unknown fields rejected;
// anything but whitespace after it (a concatenated second body, a framing
// bug) fails instead of being silently dropped. Only a decoder that took its
// whole input cleanly goes back to the pool — after an error it may hold a
// sticky failure or unread bytes of the bad body, while after a clean decode
// all it can hold is the body's trailing whitespace, which the next decode
// skips.
func strictDecode(data []byte, v any) error {
	d := strictDecoders.Get().(*strictDecoder)
	d.data, d.off = data, 0
	base := d.delivered
	if err := d.dec.Decode(v); err != nil {
		return err
	}
	for _, c := range data[d.dec.InputOffset()-base:] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return fmt.Errorf("trailing data after the JSON body")
		}
	}
	d.data = nil // never pin a request's body
	strictDecoders.Put(d)
	return nil
}

// toQuery validates and converts a decoded wire query.
func (wq *wireQuery) toQuery(dims int) (sdquery.Query, error) {
	var q sdquery.Query
	if wq.K < 1 {
		return q, fmt.Errorf("k must be ≥ 1, got %d", wq.K)
	}
	if len(wq.Point) != dims {
		return q, fmt.Errorf("point has %d dims, index has %d", len(wq.Point), dims)
	}
	if len(wq.Roles) != dims {
		return q, fmt.Errorf("%d roles for %d dims", len(wq.Roles), dims)
	}
	roles := make([]sdquery.Role, dims)
	active := 0
	for i, s := range wq.Roles {
		r, err := parseRole(s)
		if err != nil {
			return q, fmt.Errorf("dimension %d: %w", i, err)
		}
		roles[i] = r
		if r != sdquery.Ignored {
			active++
		}
	}
	if active == 0 {
		return q, fmt.Errorf("no attractive or repulsive dimensions")
	}
	for i, v := range wq.Point {
		if err := query.CheckValue(v); err != nil {
			return q, fmt.Errorf("dimension %d of the point: %w", i, err)
		}
	}
	weights := wq.Weights
	if weights == nil {
		weights = make([]float64, dims)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != dims {
		return q, fmt.Errorf("%d weights for %d dims", len(weights), dims)
	}
	for i, w := range weights {
		if query.CheckValue(w) != nil || w < 0 {
			return q, fmt.Errorf("dimension %d has invalid weight %v", i, w)
		}
	}
	return sdquery.Query{Point: wq.Point, K: wq.K, Roles: roles, Weights: weights}, nil
}

// wireResults converts engine results to the wire shape.
func wireResults(res []sdquery.Result) []wireResult {
	out := make([]wireResult, len(res))
	for i, r := range res {
		out[i] = wireResult{ID: r.ID, Score: r.Score}
	}
	return out
}

func wireQueryStats(st sdquery.QueryStats) *wireStats {
	return &wireStats{
		Segments:      st.Segments,
		Scored:        st.Scored,
		Swept:         st.Swept,
		SweptSegments: st.SweptSegments,
		BlocksBounded: st.BlocksBounded,
		BlocksSkipped: st.BlocksSkipped,
	}
}

var errBodyTooLarge = errors.New("request body too large")

// readBody reads a bounded request body, reusing buf when it is large
// enough. A declared Content-Length — every client but a chunking one sends
// it, and net/http ends the body there — sizes the buffer once and fills it
// with a single read loop; an undeclared length falls back to reading to
// EOF under the same bound.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	n := r.ContentLength
	switch {
	case n > maxBodyBytes:
		return nil, fmt.Errorf("read body: %w", errBodyTooLarge)
	case n < 0:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err == nil && len(data) > maxBodyBytes {
			err = errBodyTooLarge
		}
		if err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
		return data, nil
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return buf, nil
}

// bodyBufs recycles /v1/topk request-body buffers.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// readQuery reads and decodes a /v1/topk body through a pooled buffer: a
// query body is a few hundred bytes and nothing decoded from it aliases it
// (encoding/json copies), so the buffer goes back as soon as the query is
// decoded — unless the body was outsized and grew it past what is worth
// keeping.
func readQuery(r *http.Request, dims int) (q sdquery.Query, wantStats bool, err error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	body, err := readBody(r, *bp)
	if err != nil {
		return q, false, err
	}
	if cap(body) <= 64<<10 {
		*bp = body[:0]
	}
	return decodeQuery(body, dims)
}

// marshalBody encodes v into exactly the bytes writeJSON puts on the wire —
// the JSON document plus its trailing newline. The result cache stores
// these bytes verbatim, which is what makes a cache hit trivially
// byte-identical to a freshly computed response.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// jsonContentType is every response's Content-Type value, shared: Header.Set
// would allocate a one-element slice per response, and net/http only reads
// header values.
var jsonContentType = []string{"application/json"}

// writeRawJSON writes a pre-marshaled body (from marshalBody, possibly via
// the result cache).
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSON encodes v with a status code. Encoding into a buffer first keeps
// a marshal failure from emitting a half-written 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	writeRawJSON(w, status, body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
