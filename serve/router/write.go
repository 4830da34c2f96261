package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Distributed writes. The router owns ID assignment: every insert gets a
// cluster-unique, globally ascending ID before it is forwarded, and the ID
// picks the owning partition through the rendezvous table. That one
// decision buys the two properties distributed writes need:
//
//   - Idempotent retries. A timeout leaves a write ambiguous — maybe the
//     node committed it, maybe not. The router retries the identical
//     {id, point} body; the node answers 200 for a proven duplicate (same
//     ID, same coordinates) and 409 for a genuine collision, so a retry can
//     never double-insert and can never silently clobber.
//   - Exact reads. IDs are the global row identity, so a scatter-gathered
//     top-k carries the same IDs a single node over all rows would.
//
// Writes go to the owning partition's leader only — followers refuse them —
// and are never hedged: retrying under the same ID is the safe way to
// resolve ambiguity, racing two copies is not (both could commit, which is
// harmless here but wasteful, and remove has no such shield).
//
// The ID counter seeds lazily from the cluster itself (max index_id_space
// over every partition's /statz) so a restarted router continues above
// every ID any node has seen, then advances locally. One router owns writes
// at a time — the standard single-writer deployment; running two writers
// risks 409s, not corruption.
//
// Inserts bound for one partition are forwarded in ID-allocation order
// (writeQueue): a node admits a caller-assigned ID only above its current
// ID space, so if id N+1 committed before id N arrived, N would be
// rejected as ErrIDExists against an empty gap slot and a legitimate
// single-writer insert would die with a spurious 409. Each insert claims
// its partition's next queue ticket in the same critical section that
// assigns its ID, then waits for every earlier ticket to finish (forward,
// retries and all) before its own forward starts. Cross-partition writes
// stay concurrent; within a partition, ordering is the price of the strict
// ascending-ID contract that makes retries provably idempotent.

// writeQueue is a FIFO ticket lock: tickets are handed out in order, and a
// ticket's holder may proceed only once every earlier ticket was released.
// Abandoned tickets (holder's context ended while waiting) release through
// the same path, so one canceled insert never wedges the partition.
type writeQueue struct {
	mu       sync.Mutex
	next     uint64 // next ticket to hand out
	serving  uint64 // lowest ticket not yet released
	released map[uint64]bool
	waiters  map[uint64]chan struct{}
}

func newWriteQueue() *writeQueue {
	return &writeQueue{
		released: make(map[uint64]bool),
		waiters:  make(map[uint64]chan struct{}),
	}
}

// enqueue hands out the next ticket. Every ticket must eventually be
// released, whether or not its turn was awaited.
func (q *writeQueue) enqueue() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.next
	q.next++
	return t
}

// await blocks until every ticket before t is released, or ctx ends.
func (q *writeQueue) await(ctx context.Context, t uint64) error {
	q.mu.Lock()
	if q.serving == t {
		q.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	q.waiters[t] = ch
	q.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		delete(q.waiters, t)
		q.mu.Unlock()
		return ctx.Err()
	}
}

// release retires ticket t and wakes the next in-order waiter once every
// ticket below it is retired.
func (q *writeQueue) release(t uint64) {
	q.mu.Lock()
	q.released[t] = true
	for q.released[q.serving] {
		delete(q.released, q.serving)
		q.serving++
		if ch, ok := q.waiters[q.serving]; ok {
			close(ch)
			delete(q.waiters, q.serving)
		}
	}
	q.mu.Unlock()
}

// seedIDs initializes the global ID counter from the cluster (idempotent,
// cheap after the first call).
func (rt *Router) seedIDs(ctx context.Context) error {
	if rt.nextID.Load() >= 0 {
		return nil
	}
	rt.idMu.Lock()
	defer rt.idMu.Unlock()
	if rt.nextID.Load() >= 0 {
		return nil
	}
	max := 0
	for _, p := range rt.parts {
		space, err := rt.idSpaceOf(ctx, p)
		if err != nil {
			rt.met.idAllocFails.Add(1)
			return fmt.Errorf("router: cannot seed IDs: partition %s: %w", p.name, err)
		}
		if space > max {
			max = space
		}
	}
	rt.nextID.Store(int64(max))
	return nil
}

// idSpaceOf asks one partition's leader how large its ID space is.
func (rt *Router) idSpaceOf(ctx context.Context, p *partition) (int, error) {
	topo := p.topo.Load()
	data, err := rt.fetchOn(ctx, topo, topo.leader, http.MethodGet, "/statz", nil, 0)
	if err != nil {
		return 0, err
	}
	var st struct {
		IDSpace int `json:"index_id_space"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	return st.IDSpace, nil
}

// allocWrite hands out the next cluster-unique ID and claims the owner
// partition's write ticket in the same critical section: allocation order
// and per-partition forwarding order can therefore never disagree, which is
// what keeps concurrent inserts from reaching a leader with reordered IDs.
func (rt *Router) allocWrite(ctx context.Context) (int, *partition, uint64, error) {
	if err := rt.seedIDs(ctx); err != nil {
		return 0, nil, 0, err
	}
	rt.idMu.Lock()
	id := int(rt.nextID.Add(1) - 1)
	p := rt.owner(id)
	ticket := p.wq.enqueue()
	rt.idMu.Unlock()
	return id, p, ticket, nil
}

// writeToLeader sends one mutation to the partition's leader with the
// retry/backoff discipline (no hedging; see the package comment). Returns
// the node's response body and headers on 200.
func (rt *Router) writeToLeader(ctx context.Context, p *partition, method, path string, body []byte) ([]byte, http.Header, error) {
	var lastErr error
	backoff := rt.cfg.BackoffBase
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			rt.met.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-time.After(rt.jitter(backoff)):
			}
			if backoff *= 2; backoff > rt.cfg.BackoffCap {
				backoff = rt.cfg.BackoffCap
			}
		}
		// Load the topology per attempt: a promotion mid-write re-points the
		// leader, and the retry should go to the new one.
		topo := p.topo.Load()
		if !topo.leader.available(rt.cfg.ReopenAfter) {
			lastErr = fmt.Errorf("router: partition %s leader is ejected", p.name)
			continue
		}
		data, hdr, err := rt.writeOn(ctx, p, topo, method, path, body)
		if err == nil {
			return data, hdr, nil
		}
		var te *terminalError
		if errors.As(err, &te) {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, lastErr
}

// writeOn is one bounded write attempt against the topology's leader,
// lifting the partition's high-watermark to the ack's LSN on success. The
// request is stamped with the topology generation — a node at any other
// generation refuses it with 503 — and the ack's generation is
// validated against the partition's CURRENT generation before the write is
// trusted: if a promotion landed while this write was in flight, the ack
// came from a deposed leader whose unreplicated tail will be discarded on
// demote, so the outcome is treated as an ambiguous failure and retried
// against the new regime instead of acknowledged to the client.
func (rt *Router) writeOn(ctx context.Context, p *partition, topo *topology, method, path string, body []byte) ([]byte, http.Header, error) {
	leader := topo.leader
	tctx, cancel := context.WithTimeout(ctx, rt.cfg.TryTimeout)
	defer cancel()
	req, err := newBodyRequest(tctx, method, leader.url+path, body)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("X-SD-Generation", strconv.FormatUint(topo.gen, 10))
	resp, err := rt.client.Do(req)
	if err != nil {
		leader.fail(int32(rt.cfg.FailAfter))
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readAllBounded(resp.Body)
	if err != nil {
		leader.fail(int32(rt.cfg.FailAfter))
		return nil, nil, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		leader.ok()
		if ag := resp.Header.Get("X-SD-Generation"); ag != "" {
			if cur := p.topo.Load().gen; ag != strconv.FormatUint(cur, 10) {
				return nil, nil, fmt.Errorf("router: %s acked under generation %s but the partition moved to %d; retrying against the new leader", leader.url, ag, cur)
			}
		}
		if lsn, known := parseLSN(resp.Header.Get("X-SD-Repl-Lsns")); known {
			raise(&p.hw, lsn)
		}
		return data, resp.Header, nil
	case resp.StatusCode >= http.StatusInternalServerError,
		resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		leader.fail(int32(rt.cfg.FailAfter))
		return nil, nil, fmt.Errorf("router: %s answered %d", leader.url, resp.StatusCode)
	default:
		// 409 included: a conflicting occupant is a real error the client
		// must see, never something a retry may paper over.
		return nil, nil, &terminalError{status: resp.StatusCode, body: data}
	}
}

func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
	rt.met.writes.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var wi struct {
		Point []float64 `json:"point"`
		ID    *int      `json:"id"`
	}
	if err := json.Unmarshal(body, &wi); err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode insert: %w", err))
		return
	}
	var id int
	var p *partition
	var ticket uint64
	if wi.ID != nil {
		// A client-supplied ID (a retry of its own, or an external ID
		// authority) routes like any other; the node still proves
		// idempotence or conflicts. It joins the owner's write queue at the
		// point it arrives.
		id = *wi.ID
		if id < 0 {
			rt.met.errors4xx.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("router: id must be non-negative"))
			return
		}
		p = rt.owner(id)
		ticket = p.wq.enqueue()
	} else {
		id, p, ticket, err = rt.allocWrite(r.Context())
		if err != nil {
			rt.met.unavailable.Add(1)
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	defer p.wq.release(ticket)
	fwd, err := json.Marshal(struct {
		Point []float64 `json:"point"`
		ID    int       `json:"id"`
	}{Point: wi.Point, ID: id})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Wait for every earlier insert bound for this partition to finish, so
	// the leader sees IDs in allocation order (see the package comment).
	if err := p.wq.await(r.Context(), ticket); err != nil {
		rt.met.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	data, _, err := rt.writeToLeader(r.Context(), p, http.MethodPost, "/v1/insert", fwd)
	if err != nil {
		rt.relayWriteErr(w, err)
		return
	}
	if wi.ID != nil {
		rt.adoptExplicitID(r.Context(), id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// adoptExplicitID lifts the global ID allocator above a committed
// client-supplied ID. Without it the counter never learns about explicit
// IDs, and a later auto-allocated insert re-issues one of them — the node
// then answers 409 (or worse, 200-duplicate for an identical point) for a
// write the router just minted as fresh.
func (rt *Router) adoptExplicitID(ctx context.Context, id int) {
	// Seed first: CAS-maxing an unseeded counter (-1) would make seedIDs
	// believe seeding already happened and skip the cluster-wide scan. If
	// seeding fails, skip the adoption — the explicit ID just committed, so
	// the eventual seed scan will see an ID space above it anyway.
	if err := rt.seedIDs(ctx); err != nil {
		return
	}
	for {
		cur := rt.nextID.Load()
		if cur >= int64(id)+1 {
			return
		}
		if rt.nextID.CompareAndSwap(cur, int64(id)+1) {
			return
		}
	}
}

func (rt *Router) handleRemove(w http.ResponseWriter, r *http.Request) {
	rt.met.writes.Add(1)
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("point id %q: %w", r.PathValue("id"), err))
		return
	}
	if id < 0 {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("router: id must be non-negative"))
		return
	}
	data, _, err := rt.writeToLeader(r.Context(), rt.owner(id), http.MethodDelete, "/v1/points/"+strconv.Itoa(id), nil)
	if err != nil {
		rt.relayWriteErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// relayWriteErr maps a writeToLeader failure onto the client response:
// terminal node verdicts pass through with their status, everything else is
// 503 (the write may or may not have committed — the client retries, and
// idempotent IDs make that safe).
func (rt *Router) relayWriteErr(w http.ResponseWriter, err error) {
	var te *terminalError
	if errors.As(err, &te) {
		rt.relayTerminal(w, te)
		return
	}
	rt.met.unavailable.Add(1)
	writeError(w, http.StatusServiceUnavailable, err)
}
