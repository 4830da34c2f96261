package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
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
// Inserts bound for one partition are forwarded in ID-allocation order: a
// node admits a caller-assigned ID only above its current ID space, so if
// id N+1 committed before id N arrived, N would be rejected as ErrIDExists
// against an empty gap slot and a legitimate single-writer insert would die
// with a spurious 409. Each insert joins its partition's chain (enqueue) in
// the same critical section that assigns its ID, then waits for its
// predecessor to finish (forward, retries and all) before its own forward
// starts. Cross-partition writes stay concurrent; within a partition,
// ordering is the price of the strict ascending-ID contract that makes
// retries provably idempotent.

// turn is one insert's place in its partition's chain: it may forward once
// prev is closed, and closes done when it is finished.
type turn struct {
	prev <-chan struct{}
	done chan struct{}
}

// finished stands in as the predecessor of a partition's first turn.
var finished = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// enqueue appends a turn to p's chain. Every turn must be released, whether
// or not it was awaited.
func (p *partition) enqueue() turn {
	done := make(chan struct{})
	t := turn{prev: finished, done: done}
	if prev := p.tail.Swap(&done); prev != nil {
		t.prev = *prev
	}
	return t
}

// await blocks until the predecessor has finished, or ctx ends.
func (t turn) await(ctx context.Context) error {
	select {
	case <-t.prev:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release passes the turn on. A holder that gave up waiting hands over only
// once its predecessor has finished — a successor must never overtake an
// earlier insert — so one canceled insert neither wedges the partition nor
// reorders it.
func (t turn) release() {
	select {
	case <-t.prev:
		close(t.done)
	default:
		go func() {
			<-t.prev
			close(t.done)
		}()
	}
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
	var st struct {
		IDSpace int `json:"index_id_space"`
	}
	err := rt.statz(ctx, p.topo.Load().leader, &st)
	return st.IDSpace, err
}

// allocWrite hands out the next cluster-unique ID and queues the insert on
// the owner partition's chain in the same critical section: allocation
// order and per-partition forwarding order can therefore never disagree,
// which is what keeps concurrent inserts from reaching a leader with
// reordered IDs.
func (rt *Router) allocWrite(ctx context.Context) (int, *partition, turn, error) {
	if err := rt.seedIDs(ctx); err != nil {
		return 0, nil, turn{}, err
	}
	rt.idMu.Lock()
	id := int(rt.nextID.Add(1) - 1)
	p := rt.owner(id)
	t := p.enqueue()
	rt.idMu.Unlock()
	return id, p, t, nil
}

// writeToLeader sends one mutation to the partition's leader inside the
// retry loop (no hedging; see the package comment) and returns the node's
// response body on 200. Each try is stamped with its topology's generation
// — a node at any other generation refuses it with 503 — and the ack's
// generation is validated against the partition's CURRENT generation
// before the write is trusted: if a promotion landed while this write was
// in flight, the ack came from a deposed leader whose unreplicated tail
// will be discarded on demote, so the outcome is treated as an ambiguous
// failure and retried against the new regime instead of acknowledged to the
// client. A trusted ack lifts the partition's write watermark to its LSN.
func (rt *Router) writeToLeader(ctx context.Context, p *partition, method, path string, body []byte) ([]byte, error) {
	return rt.retry(ctx, p, func(topo *topology, _ int) ([]byte, error) {
		leader := topo.leader
		if !leader.available(rt.cfg.ReopenAfter) {
			return nil, fmt.Errorf("router: partition %s leader is ejected", p.name)
		}
		data, hdr, err := rt.attempt(ctx, leader, method, path, body, strconv.FormatUint(topo.gen, 10), nil)
		if err != nil {
			return nil, err
		}
		if ag := hdr.Get("X-SD-Generation"); ag != "" {
			if cur := p.topo.Load().gen; ag != strconv.FormatUint(cur, 10) {
				return nil, fmt.Errorf("router: %s acked under generation %s but the partition moved to %d; retrying against the new leader", leader.url, ag, cur)
			}
		}
		if lsn, known := parseLSN(hdr.Get("X-SD-Repl-Lsns")); known {
			raise(&p.hw, lsn)
		}
		return data, nil
	})
}

func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
	rt.met.writes.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.badRequest(w, err)
		return
	}
	var wi struct {
		Point []float64 `json:"point"`
		ID    *int      `json:"id"`
	}
	if err := json.Unmarshal(body, &wi); err != nil {
		rt.badRequest(w, fmt.Errorf("decode insert: %w", err))
		return
	}
	var id int
	var p *partition
	var t turn
	if wi.ID != nil {
		// A client-supplied ID (a retry of its own, or an external ID
		// authority) routes like any other; the node still proves
		// idempotence or conflicts. It joins the owner's chain at the point
		// it arrives.
		id = *wi.ID
		if id < 0 {
			rt.badRequest(w, fmt.Errorf("router: id must be non-negative"))
			return
		}
		p = rt.owner(id)
		t = p.enqueue()
	} else {
		id, p, t, err = rt.allocWrite(r.Context())
		if err != nil {
			rt.relayErr(w, err)
			return
		}
	}
	defer t.release()
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
	if err := t.await(r.Context()); err != nil {
		rt.relayErr(w, err)
		return
	}
	data, err := rt.writeToLeader(r.Context(), p, http.MethodPost, "/v1/insert", fwd)
	if err != nil {
		rt.relayErr(w, err)
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
		rt.badRequest(w, fmt.Errorf("point id %q: %w", r.PathValue("id"), err))
		return
	}
	if id < 0 {
		rt.badRequest(w, fmt.Errorf("router: id must be non-negative"))
		return
	}
	data, err := rt.writeToLeader(r.Context(), rt.owner(id), http.MethodDelete, "/v1/points/"+strconv.Itoa(id), nil)
	if err != nil {
		rt.relayErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
