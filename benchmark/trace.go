package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
)

// Tracing from outside the program: spans are recorded at four boundaries —
// the load generator's call (client), the router's handler, each node's
// handler, and each call into the engine — by wrapping what the benchmark
// hands to the public constructors. Nothing inside the program is edited.
//
// Spans of one request are joined afterwards without any help from the
// program: the router forwards a top-k body verbatim, so client, router and
// node spans of one read share the hash of that body; the engine sees the
// decoded query, so its span carries a hash of the query's float bits, which
// the client span records as well. Writes come from one sequential writer,
// so a write's spans nest by interval alone.

type spanKind uint8

const (
	spClient spanKind = iota
	spRouter
	spNode
	spEngine
)

func (k spanKind) String() string {
	return [...]string{"client", "router", "node", "engine"}[k]
}

type opKind uint8

const (
	opTopK opKind = iota
	opInsert
	opRemove
)

func (o opKind) String() string {
	return [...]string{"topk", "insert", "remove"}[o]
}

type span struct {
	kind  spanKind
	op    opKind
	node  int8   // which node recorded it (node and engine spans)
	batch int32  // engine spans: queries sharing this call
	key   uint64 // reads: body hash at the HTTP boundaries, query hash at the engine
	qkey  uint64 // client spans: the query hash its engine spans carry
	seq   int64  // client spans: client<<40 | index in that client's stream
	start int64  // ns since the recorder's base
	end   int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory; on is flipped by the run's controller so
// the same wrappers cost one atomic load while tracing is off.
type recorder struct {
	on   atomic.Bool
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// handler wraps a router's or a node's http.Handler. Only the three client
// operations get spans; health probes and replication pulls pass through.
func (r *recorder) handler(kind spanKind, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		s := span{kind: kind, node: int8(node)}
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/v1/topk":
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, "benchmark: read body", http.StatusBadRequest)
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			s.key = hashBytes(body)
		case req.Method == http.MethodPost && req.URL.Path == "/v1/insert":
			s.op = opInsert
		case req.Method == http.MethodDelete && strings.HasPrefix(req.URL.Path, "/v1/points/"):
			s.op = opRemove
		default:
			h.ServeHTTP(w, req)
			return
		}
		s.start = r.now()
		h.ServeHTTP(w, req)
		s.end = r.now()
		r.add(s)
	})
}

// tracedIndex is the serve.Index a traced node is built over: the concrete
// index, embedded so every optional capability the server probes for (WAL
// stats, replication source, caller-assigned IDs, …) is still there, with
// spans around the calls the request paths make.
type tracedIndex struct {
	*sdquery.ShardedIndex
	rec  *recorder
	node int8
}

func (t *tracedIndex) queries(start int64, qs ...sdquery.Query) {
	end := t.rec.now()
	for _, q := range qs {
		t.rec.add(span{kind: spEngine, node: t.node, batch: int32(len(qs)),
			key: hashQuery(q), start: start, end: end})
	}
}

func (t *tracedIndex) write(op opKind, start int64) {
	t.rec.add(span{kind: spEngine, op: op, node: t.node, start: start, end: t.rec.now()})
}

func (t *tracedIndex) TopK(q sdquery.Query) ([]sdquery.Result, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.TopK(q)
	}
	defer t.queries(t.rec.now(), q)
	return t.ShardedIndex.TopK(q)
}

func (t *tracedIndex) TopKContext(ctx context.Context, q sdquery.Query) ([]sdquery.Result, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.TopKContext(ctx, q)
	}
	defer t.queries(t.rec.now(), q)
	return t.ShardedIndex.TopKContext(ctx, q)
}

func (t *tracedIndex) BatchTopK(qs []sdquery.Query) ([][]sdquery.Result, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.BatchTopK(qs)
	}
	defer t.queries(t.rec.now(), qs...)
	return t.ShardedIndex.BatchTopK(qs)
}

func (t *tracedIndex) BatchTopKContext(ctx context.Context, qs []sdquery.Query) ([][]sdquery.Result, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.BatchTopKContext(ctx, qs)
	}
	defer t.queries(t.rec.now(), qs...)
	return t.ShardedIndex.BatchTopKContext(ctx, qs)
}

func (t *tracedIndex) Insert(p []float64) (int, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.Insert(p)
	}
	defer t.write(opInsert, t.rec.now())
	return t.ShardedIndex.Insert(p)
}

func (t *tracedIndex) InsertWithID(id int, p []float64) error {
	if !t.rec.on.Load() {
		return t.ShardedIndex.InsertWithID(id, p)
	}
	defer t.write(opInsert, t.rec.now())
	return t.ShardedIndex.InsertWithID(id, p)
}

func (t *tracedIndex) Remove(id int) bool {
	if !t.rec.on.Load() {
		return t.ShardedIndex.Remove(id)
	}
	defer t.write(opRemove, t.rec.now())
	return t.ShardedIndex.Remove(id)
}

func (t *tracedIndex) RemoveDurable(id int) (bool, error) {
	if !t.rec.on.Load() {
		return t.ShardedIndex.RemoveDurable(id)
	}
	defer t.write(opRemove, t.rec.now())
	return t.ShardedIndex.RemoveDurable(id)
}

// traceShape says which boundaries a workload has between the client and
// the engine, and which nodes' engine calls are visible (a follower builds
// its own index, so the benchmark cannot wrap it).
type traceShape struct {
	router      bool
	node        bool
	tracedNodes map[int8]bool
}

// layerTimes is what the span join yields: times in ns, one entry per
// request (or per span, where noted), ready for medians.
type layerTimes struct {
	clientNet    []int64 // client span minus its outermost child
	routerHandle []int64 // per router top-k span
	routerSelf   []int64 // router span minus the union of its node spans
	fanoutSkew   []int64 // longest minus shortest node span of one read
	serveHandle  []int64 // per node top-k span
	serveSelf    []int64 // node span minus its engine spans; traced nodes only
	engineTopK   []int64 // per engine span: call time ÷ queries in the call
	engineInsert []int64
	engineRemove []int64

	requests  int
	unmatched int   // client spans whose outermost child was not found
	clientNs  int64 // Σ client span time
	engineNs  int64 // Σ time some engine call ran for the request
	selfSumNs int64 // Σ of the layers' self times, each clipped to its parent

	assignedTo []int64 // per span: seq of the client span it nests under, or -1
}

type spanKey struct {
	key uint64
	op  opKind
}

// spanIndex finds the not-yet-claimed spans of one kind by key and interval.
type spanIndex struct {
	spans []span
	byKey map[spanKey][]int // span positions, ascending start
	used  []bool
}

func newSpanIndex(spans []span, kind spanKind) *spanIndex {
	ix := &spanIndex{spans: spans, byKey: map[spanKey][]int{}, used: make([]bool, len(spans))}
	for i, s := range spans {
		if s.kind == kind {
			k := spanKey{s.key, s.op}
			ix.byKey[k] = append(ix.byKey[k], i)
		}
	}
	for _, l := range ix.byKey {
		sort.Slice(l, func(a, b int) bool { return spans[l[a]].start < spans[l[b]].start })
	}
	return ix
}

// take claims the unclaimed spans with this key that start inside [lo, hi];
// node < 0 accepts any node; first stops after one.
func (ix *spanIndex) take(k spanKey, lo, hi int64, node int8, first bool) []int {
	var out []int
	for _, i := range ix.byKey[k] {
		s := ix.spans[i]
		if s.start > hi {
			break
		}
		if ix.used[i] || s.start < lo || (node >= 0 && s.node != node) {
			continue
		}
		ix.used[i] = true
		out = append(out, i)
		if first {
			break
		}
	}
	return out
}

// cover is the length of the union of the spans' intervals clipped to
// [lo, hi].
func cover(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		if a, b := max(spans[i].start, lo), min(spans[i].end, hi); b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := int64(0), lo
	for _, v := range ivs {
		if v.b > end {
			total += v.b - max(v.a, end)
			end = v.b
		}
	}
	return total
}

// joinSpans nests every client span's children under it and derives the
// per-layer times. A layer's self time is its span minus the part of it its
// children cover; below the outermost handler the node spans of one read
// overlap (the partitions work in parallel), so node and engine time are
// taken along the wall clock.
func joinSpans(spans []span, shape traceShape) *layerTimes {
	lt := &layerTimes{assignedTo: make([]int64, len(spans))}
	for i := range lt.assignedTo {
		lt.assignedTo[i] = -1
	}
	routers := newSpanIndex(spans, spRouter)
	nodes := newSpanIndex(spans, spNode)
	engines := newSpanIndex(spans, spEngine)

	var clients []int
	for i, s := range spans {
		switch {
		case s.kind == spClient:
			clients = append(clients, i)
		case s.kind == spEngine && s.op == opTopK:
			lt.engineTopK = append(lt.engineTopK, s.dur()/int64(s.batch))
		case s.kind == spEngine && s.op == opInsert:
			lt.engineInsert = append(lt.engineInsert, s.dur())
		case s.kind == spEngine && s.op == opRemove:
			lt.engineRemove = append(lt.engineRemove, s.dur())
		case s.kind == spNode && s.op == opTopK:
			lt.serveHandle = append(lt.serveHandle, s.dur())
		case s.kind == spRouter && s.op == opTopK:
			lt.routerHandle = append(lt.routerHandle, s.dur())
		}
	}
	sort.Slice(clients, func(a, b int) bool { return spans[clients[a]].start < spans[clients[b]].start })

	for _, ci := range clients {
		c := spans[ci]
		read := c.op == opTopK
		lt.assignedTo[ci] = c.seq
		lt.requests++
		lt.clientNs += c.dur()
		claim := func(idx []int) []int {
			for _, i := range idx {
				lt.assignedTo[i] = c.seq
			}
			return idx
		}
		httpKey := spanKey{c.key, c.op}
		engineKey := spanKey{c.qkey, c.op}

		var outer, nodeSpans, engineSpans []int
		var routerSelf int64
		wallLo, wallHi := c.start, c.end // where the layers below the outermost handler ran
		switch {
		case shape.router:
			outer = claim(routers.take(httpKey, c.start, c.end, -1, true))
			if len(outer) == 0 {
				break
			}
			r := spans[outer[0]]
			nodeSpans = claim(nodes.take(httpKey, r.start, r.end, -1, false))
			routerSelf = r.dur() - cover(spans, nodeSpans, r.start, r.end)
			wallLo, wallHi = r.start, r.end
			if read {
				lt.routerSelf = append(lt.routerSelf, routerSelf)
				if len(nodeSpans) > 1 {
					short, long := spans[nodeSpans[0]].dur(), spans[nodeSpans[0]].dur()
					for _, ni := range nodeSpans[1:] {
						short, long = min(short, spans[ni].dur()), max(long, spans[ni].dur())
					}
					lt.fanoutSkew = append(lt.fanoutSkew, long-short)
				}
			}
		case shape.node:
			outer = claim(nodes.take(httpKey, c.start, c.end, -1, true))
			nodeSpans = outer
		default:
			outer = claim(engines.take(engineKey, c.start, c.end, -1, false))
			engineSpans = outer
		}
		if len(outer) == 0 {
			lt.unmatched++
			continue
		}
		net := c.dur() - cover(spans, outer, c.start, c.end)
		if read {
			lt.clientNet = append(lt.clientNet, net)
		}
		for _, ni := range nodeSpans {
			n := spans[ni]
			e := claim(engines.take(engineKey, n.start, n.end, n.node, false))
			engineSpans = append(engineSpans, e...)
			if read && shape.tracedNodes[n.node] {
				lt.serveSelf = append(lt.serveSelf, n.dur()-cover(spans, e, n.start, n.end))
			}
		}
		below := engineSpans
		if len(nodeSpans) > 0 {
			below = nodeSpans
		}
		lt.engineNs += cover(spans, engineSpans, wallLo, wallHi)
		lt.selfSumNs += net + routerSelf + cover(spans, below, wallLo, wallHi)
	}
	return lt
}

// writeTrace writes the run record and every span, one JSON object a line.
func writeTrace(path string, record string, spans []span, lt *layerTimes) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%s\n", record)
	for i, s := range spans {
		req := "-"
		if a := lt.assignedTo[i]; a >= 0 {
			req = fmt.Sprintf("%d.%d", a>>40, a&(1<<40-1))
		}
		fmt.Fprintf(w, `{"req":%q,"span":%q,"op":%q,"node":%d,"batch":%d,"start_us":%.1f,"dur_us":%.1f}`+"\n",
			req, s.kind, s.op, s.node, s.batch, float64(s.start)/1e3, float64(s.dur())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
