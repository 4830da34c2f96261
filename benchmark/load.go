package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	sdquery "repro"
)

// The load generator: closed-loop top-k clients, one open-loop writer, and
// the phase clock they share. It runs in the same process as the servers,
// so it does as little per request as it can: bodies are encoded into reused
// buffers, responses are read but parsed only for the one request in
// keepEvery whose answer the oracle checks afterwards.

const keepEvery = 16

// A run moves through these phases; clients stamp each operation with the
// phase it started in and drop it if the phase changed before it finished.
const (
	phWarm   int32 = iota // caches and plan caches fill; not timed
	phTimed               // the untraced timed phase
	phTraced              // traced runs only: the same load with spans on
	phDone
)

// A timed phase is cut into this many equal windows. Every client-side
// figure is computed per window and the second-best window is reported:
// whatever else runs on the machine can only slow a window down, so the
// quiet windows are the ones that measure the program, and the single best
// one is left out as a possible fluke. Measured here (README.md), this
// halves the run-to-run spread the median of the windows has.
const windows = 10

type phaseClock struct {
	rec   *recorder // its base is the run's time zero
	cur   atomic.Int32
	start [phDone + 1]int64 // written by the controller before cur moves
}

// enter moves the run into phase ph.
func (p *phaseClock) enter(ph int32) {
	p.start[ph] = p.rec.now()
	p.cur.Store(ph)
}

// sample is one operation completed inside the phase it started in.
type sample struct {
	phase int32
	end   int64 // ns since the phase began
	lat   int64 // ns
}

type keptAnswer struct {
	q       sdquery.Query
	poolIdx int
	res     []sdquery.Result
}

// clientLog is what one load goroutine hands back.
type clientLog struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	kept      []keptAnswer
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// opFunc performs one top-k. With keep it also returns the parsed answer.
type opFunc func(q sdquery.Query, body []byte, keep bool) ([]sdquery.Result, error)

// closedLoop issues the stream's queries back to back until the run is done.
func closedLoop(clock *phaseClock, client int, st *stream, op opFunc, log *clientLog) {
	rec := clock.rec
	for i := int64(0); ; i++ {
		ph := clock.cur.Load()
		if ph == phDone {
			return
		}
		q, body, poolIdx := st.next()
		keep := ph != phWarm && i%keepEvery == 0
		t0 := rec.now()
		res, err := op(q, body, keep)
		t1 := rec.now()
		log.attempted++
		if err != nil {
			log.fail(err)
			continue
		}
		if ph == phWarm || clock.cur.Load() != ph {
			continue
		}
		log.samples = append(log.samples, sample{phase: ph, end: t1 - clock.start[ph], lat: t1 - t0})
		if keep {
			log.kept = append(log.kept, keptAnswer{q: cloneQuery(q), poolIdx: poolIdx, res: res})
		}
		if ph == phTraced {
			qkey := hashQuery(q)
			key := qkey
			if body != nil {
				key = hashBytes(body)
			}
			rec.add(span{kind: spClient, key: key, qkey: qkey, seq: int64(client)<<40 | i, start: t0, end: t1})
		}
	}
}

// httpClient is one keep-alive connection's worth of client.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request and returns the response body, valid until the next
// call. Any status but 200 is an error.
func (h *httpClient) do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(h.buf.Bytes()))
	}
	return h.buf.Bytes(), nil
}

func parseResults(data []byte) ([]sdquery.Result, error) {
	var tr struct {
		Results []struct {
			ID    int     `json:"id"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("decode top-k response: %w", err)
	}
	out := make([]sdquery.Result, len(tr.Results))
	for i, r := range tr.Results {
		out[i] = sdquery.Result{ID: r.ID, Score: r.Score}
	}
	return out, nil
}

// topK posts one query and, with keep, parses the answer.
func (h *httpClient) topK(base string, body []byte, keep bool) ([]sdquery.Result, error) {
	data, err := h.do(http.MethodPost, base+"/v1/topk", body)
	if err != nil || !keep {
		return nil, err
	}
	return parseResults(data)
}

// httpOp is the opFunc of a client that talks to base over HTTP.
func (h *httpClient) httpOp(base string) opFunc {
	return func(_ sdquery.Query, body []byte, keep bool) ([]sdquery.Result, error) {
		return h.topK(base, body, keep)
	}
}

// writeLog is what the open-loop writer hands back: its samples, how late
// it sent, and every acknowledged write.
type writeLog struct {
	clientLog
	late     []int64           // timed phases: send time minus due time, ns
	inserts  int               // timed phases: acked inserts
	inserted map[int][]float64 // acked inserts by the ID the router gave them
	removed  map[int]bool      // acked deletes
}

// openLoopWriter sends rate writes a second through the router, on schedule
// whether or not earlier ones were slow: an insert, then a delete of the
// insert before last, so the row count stays steady. Each write is timed
// from when it was due.
func openLoopWriter(clock *phaseClock, base string, seed uint64, rate int, log *writeLog) {
	h := newHTTPClient()
	defer h.close()
	rec := clock.rec
	r := newRand(seed, streamWriter)
	interval := int64(time.Second) / int64(rate)
	first := rec.now()
	var ids []int
	nextDel := 0
	var body []byte
	point := make([]float64, dims)
	for i := int64(0); ; i++ {
		due := first + i*interval
		if wait := due - rec.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		ph := clock.cur.Load()
		if ph == phDone {
			return
		}
		sent := rec.now()
		op := opInsert
		var err error
		if i%2 == 1 && nextDel < len(ids)-1 {
			op = opRemove
			id := ids[nextDel]
			nextDel++
			if _, err = h.do(http.MethodDelete, base+"/v1/points/"+strconv.Itoa(id), nil); err == nil {
				log.removed[id] = true
			}
		} else {
			var id int
			if id, err = h.insert(base, r, point, &body); err == nil {
				ids = append(ids, id)
				log.inserted[id] = append([]float64(nil), point...)
			}
		}
		end := rec.now()
		log.attempted++
		if err != nil {
			log.fail(err)
			continue
		}
		if ph == phWarm || clock.cur.Load() != ph {
			continue
		}
		log.samples = append(log.samples, sample{phase: ph, end: end - clock.start[ph], lat: end - due})
		log.late = append(log.late, sent-due)
		if op == opInsert {
			log.inserts++
		}
		if ph == phTraced {
			rec.add(span{kind: spClient, op: op, seq: 1<<40 | i, start: sent, end: end})
		}
	}
}

// insert posts one random point and returns the ID the router assigned.
func (h *httpClient) insert(base string, r *rand.Rand, point []float64, body *[]byte) (int, error) {
	fillPoint(r, point)
	*body = appendInsertBody((*body)[:0], point)
	data, err := h.do(http.MethodPost, base+"/v1/insert", *body)
	if err != nil {
		return 0, err
	}
	var ack struct {
		ID *int `json:"id"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == nil {
		return 0, fmt.Errorf("decode insert ack %q: %v", data, err)
	}
	return *ack.ID, nil
}

// phaseStats are one phase's client-side figures, each the second-best of
// the phase's windows.
type phaseStats struct {
	p50ms, p99ms, qps float64
	samples           int
	windowP50ms       []float64 // per window, for the run record
}

// windowOf is the window a sample that completed end ns into a phase of
// phaseNs falls in.
func windowOf(end, phaseNs int64) int {
	return min(int(end*windows/phaseNs), windows-1)
}

// windowStats cuts the phase's samples into equal windows by completion
// time and takes the second-best of the per-window figures.
func windowStats(logs []*clientLog, phase int32, phaseNs int64) phaseStats {
	var per [windows][]int64
	n := 0
	for _, l := range logs {
		for _, s := range l.samples {
			if s.phase == phase {
				w := windowOf(s.end, phaseNs)
				per[w] = append(per[w], s.lat)
				n++
			}
		}
	}
	var p50, p99, qps []float64
	for _, lats := range per {
		slices.Sort(lats)
		p50 = append(p50, float64(quantile(lats, 0.50))/1e6)
		p99 = append(p99, float64(quantile(lats, 0.99))/1e6)
		qps = append(qps, float64(len(lats))/(float64(phaseNs)/windows/1e9))
	}
	return phaseStats{p50ms: secondLowest(p50), p99ms: secondLowest(p99), qps: secondHighest(qps),
		samples: n, windowP50ms: p50}
}

func secondLowest(v []float64) float64 {
	s := sortedCopy(v)
	return s[min(1, len(s)-1)]
}

func secondHighest(v []float64) float64 {
	s := sortedCopy(v)
	return s[max(len(s)-2, 0)]
}

// sortedCopy returns v ascending, leaving v as it was.
func sortedCopy[T int64 | float64](v []T) []T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// quantile reads the q-quantile off an ascending slice (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianNs is the median of ns durations, in the unit div converts to.
func medianNs(v []int64, div float64) float64 {
	return float64(quantile(sortedCopy(v), 0.5)) / div
}

// sampleLag reads every follower's replication lag each 100 ms while the
// run is in a timed phase, until it is done.
func sampleLag(clock *phaseClock, followers []*node) (lag []int64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		switch clock.cur.Load() {
		case phDone:
			return lag
		case phWarm:
			continue
		}
		for _, f := range followers {
			lag = append(lag, int64(f.srv.ReplLag()))
		}
	}
	return lag
}
