package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Per-node health: a consecutive-failure circuit breaker fed by both the
// active health checker and passive request outcomes, plus a small latency
// ring that feeds the adaptive hedge delay.
//
// Breaker states map onto two atomics. fails counts consecutive failures;
// reaching FailAfter trips the breaker by stamping downSince. While tripped,
// the node is skipped by candidate selection until ReopenAfter has elapsed —
// then it is half-open: offered again, and the next outcome either resets it
// (success) or re-stamps downSince for another full ReopenAfter (failure).
// The health loop probes every node on a fixed cadence regardless of state,
// so an ejected node recovers within ReopenAfter + one probe interval even
// with zero client traffic.

type node struct {
	url       string
	fails     atomic.Int32
	downSince atomic.Int64 // unix nanos when tripped; 0 = closed (healthy)
	lat       latRing

	// lsn caches the last LSN this node reported (on read responses and
	// candidate probes); lsnSeen is false until it has reported one. Read
	// balancing consults the pair to skip replicas known to be staler than
	// the partition watermark; it is a hint, not a proof — the answer-time
	// freshness gate in fetchOn stays authoritative.
	lsn     atomic.Uint64
	lsnSeen atomic.Bool
}

func (n *node) setLSN(v uint64) {
	n.lsn.Store(v)
	n.lsnSeen.Store(true)
}

// knownStale reports whether the node's last-reported position is behind hw.
func (n *node) knownStale(hw uint64) bool { return n.lsnSeen.Load() && n.lsn.Load() < hw }

func (n *node) ok() {
	n.fails.Store(0)
	n.downSince.Store(0)
}

func (n *node) fail(failAfter int32) {
	if n.fails.Add(1) >= failAfter {
		// Always re-stamp: a half-open probe that fails buys another full
		// ReopenAfter of ejection instead of letting traffic hammer a node
		// that answered one probe poorly.
		n.downSince.Store(time.Now().UnixNano())
	}
}

// available reports whether the breaker admits traffic: closed, or tripped
// long enough ago to be half-open.
func (n *node) available(reopenAfter time.Duration) bool {
	ds := n.downSince.Load()
	return ds == 0 || time.Since(time.Unix(0, ds)) >= reopenAfter
}

func (n *node) healthy() bool { return n.downSince.Load() == 0 }

// latWindow is how many recent latencies a latRing keeps.
const latWindow = 64

// latRing is a small sliding window of observed request latencies. The
// hedge trigger wants "this try is slower than this node usually is", which
// a recent-window quantile answers without unbounded history.
type latRing struct {
	mu  sync.Mutex
	buf [latWindow]time.Duration
	n   int // filled entries
	i   int // next write
}

func (l *latRing) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.i] = d
	l.i = (l.i + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of the window (0 when empty). It sorts a
// stack copy, so a routed read's three calls per partition allocate nothing.
func (l *latRing) quantile(q float64) time.Duration {
	var tmp [latWindow]time.Duration
	l.mu.Lock()
	n := copy(tmp[:], l.buf[:l.n])
	l.mu.Unlock()
	if n == 0 {
		return 0
	}
	slices.Sort(tmp[:n])
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx]
}

// healthLoop actively probes every node's /healthz until the router closes.
func (rt *Router) healthLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, p := range rt.parts {
		topo := p.topo.Load()
		for _, n := range topo.nodes() {
			wg.Add(1)
			go func(p *partition, topo *topology, n *node) {
				defer wg.Done()
				role, gen, up := rt.probe(n)
				if !up {
					return
				}
				raise(&p.maxGen, gen)
				if n != topo.leader && role == "leader" && gen < topo.gen {
					// A deposed leader came back still believing itself the
					// leader of a past generation. Its writes are already
					// fenced off; demote it so it rejoins as a follower of
					// the current leader and becomes a useful replica again.
					rt.demote(p, topo, n)
				}
			}(p, topo, n)
		}
	}
	wg.Wait()
	rt.promoteDue()
}

// probe is one active health check. Draining (503) and dead nodes both
// count as failures; any 200 closes the breaker and reports the node's
// self-declared role and fencing generation (from the X-SD-Role and
// X-SD-Generation healthz headers; "" and 0 for pre-promotion nodes).
func (rt *Router) probe(n *node) (role string, gen uint64, up bool) {
	req, err := http.NewRequest(http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return "", 0, false
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		n.fail(int32(rt.cfg.FailAfter))
		return "", 0, false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.fail(int32(rt.cfg.FailAfter))
		return "", 0, false
	}
	n.ok()
	gen, _ = strconv.ParseUint(resp.Header.Get("X-SD-Generation"), 10, 64)
	return resp.Header.Get("X-SD-Role"), gen, true
}

// adminTimeout bounds one promote or demote call. Both involve real work on
// the node (a WAL checkpoint of the whole index; a snapshot re-bootstrap),
// so the budget is far above TryTimeout.
const adminTimeout = 60 * time.Second

// promoteDue scans for partitions whose leader has been continuously
// unhealthy past the PromoteAfter deadline and starts one promotion attempt
// each. Called from the health loop after every probe round.
func (rt *Router) promoteDue() {
	if rt.cfg.PromoteAfter < 0 {
		return
	}
	now := time.Now().UnixNano()
	for _, p := range rt.parts {
		topo := p.topo.Load()
		if topo.leader.healthy() {
			p.leaderDown.Store(0)
			continue
		}
		if len(topo.replicas) == 0 {
			continue
		}
		down := p.leaderDown.Load()
		if down == 0 {
			p.leaderDown.Store(now)
			continue
		}
		if time.Duration(now-down) < rt.cfg.PromoteAfter {
			continue
		}
		if !p.promoting.CompareAndSwap(false, true) {
			continue
		}
		go func(p *partition, topo *topology) {
			defer p.promoting.Store(false)
			if rt.promote(p, topo) {
				p.leaderDown.Store(0)
			}
		}(p, topo)
	}
}

// promote elects and fences a new leader for a partition whose leader is
// gone. The candidate is the live replica with the highest LSN (no fresher
// survivor is left behind), and that LSN must have reached the partition's
// write watermark (no acknowledged write may be lost). If no replica
// qualifies the attempt is abandoned — the router keeps waiting, by
// design: promoting a lagging replica would silently drop acked writes.
// The new generation is allocated above both the topology's and the highest
// generation any node has ever reported, so a promote whose ack was lost
// can never leave two nodes fenced at the same generation.
func (rt *Router) promote(p *partition, topo *topology) bool {
	if p.topo.Load() != topo {
		return false // a concurrent regime change already superseded this one
	}
	hw := p.hw.Load()
	var best *node
	var bestLSN uint64
	for _, rn := range topo.replicas {
		if !rn.healthy() {
			continue
		}
		lsn, err := rt.replLSN(context.Background(), rn)
		if err != nil {
			continue
		}
		rn.setLSN(lsn)
		if lsn >= hw && (best == nil || lsn > bestLSN) {
			best, bestLSN = rn, lsn
		}
	}
	if best == nil {
		return false
	}
	gen := max(topo.gen, p.maxGen.Load()) + 1
	if !rt.admin(best, "/v1/admin/promote", map[string]uint64{"generation": gen}) {
		return false
	}
	// The candidate accepted the fence; even if this router crashed here the
	// generation bookkeeping above keeps the next attempt strictly newer.
	nt := &topology{gen: gen, leader: best}
	nt.replicas = append(nt.replicas, topo.leader)
	for _, rn := range topo.replicas {
		if rn != best {
			nt.replicas = append(nt.replicas, rn)
		}
	}
	p.topo.Store(nt)
	raise(&p.maxGen, gen)
	rt.met.promotions.Add(1)
	return true
}

// replLSN asks one replica for its applied LSN (the repl_lsns field of
// /statz, a one-element vector) — the promotion candidate gate's evidence.
// Any other length is a multi-stream node whose position this router cannot
// compare, reported as an error so the node is no candidate.
func (rt *Router) replLSN(ctx context.Context, n *node) (uint64, error) {
	var st struct {
		LSNs []uint64 `json:"repl_lsns"`
	}
	if err := rt.statz(ctx, n, &st); err != nil {
		return 0, err
	}
	if len(st.LSNs) != 1 {
		return 0, fmt.Errorf("router: %s reports %d replication positions, want 1", n.url, len(st.LSNs))
	}
	return st.LSNs[0], nil
}

// statz reads one node's /statz into v — one attempt, breaker included.
func (rt *Router) statz(ctx context.Context, n *node, v any) error {
	data, _, err := rt.attempt(ctx, n, http.MethodGet, "/statz", nil, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// demote tells a stale self-declared leader to rejoin as a follower of the
// current leader. Fenced like promote: the node only obeys a generation
// strictly above its own, which the current topology generation is for any
// leader deposed by a promotion.
func (rt *Router) demote(p *partition, topo *topology, n *node) {
	if !p.demoting.CompareAndSwap(false, true) {
		return // one demotion in flight per partition; probes re-trigger
	}
	go func() {
		defer p.demoting.Store(false)
		if rt.admin(n, "/v1/admin/demote", map[string]any{"generation": topo.gen, "leader": topo.leader.url}) {
			rt.met.demotions.Add(1)
		}
	}()
}

// admin POSTs one role-change command to n and reports whether it answered
// 200. It runs under adminTimeout rather than TryTimeout, and leaves the
// breaker alone: a slow or refused command says nothing about whether the
// node can serve.
func (rt *Router) admin(n *node, path string, v any) bool {
	body, err := json.Marshal(v)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), adminTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Drained only so the connection can be reused: the status is the verdict.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
	return resp.StatusCode == http.StatusOK
}
