package serve

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

// trimURL canonicalizes a node URL the way NewFollower does.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// Fenced role transitions — the node half of automated leader failover.
//
// A router that decides a partition's leader is gone elects the most
// caught-up live replica and promotes it:
//
//	POST /v1/admin/promote {"generation": G}
//
// The call is fenced by the generation number: it succeeds only when G is
// strictly above the node's current generation (and idempotently re-acks
// when the node is already the generation-G leader — promotion acks can be
// lost like any other). On success the follower stops tailing its old
// leader, attaches a fresh write-ahead log under WithPromotionWALDir (so
// leadership and durability arrive together; a follower without one
// refuses), bumps its box generation —
// which changes the replication source token, telling any followers OF THIS
// NODE to re-bootstrap onto the new history — and starts accepting writes
// stamped with generation G.
//
// The old leader, when it comes back, is demoted rather than trusted:
//
//	POST /v1/admin/demote {"generation": G, "leader": url}
//
// also fenced (G must be above the node's generation — a deposed leader is
// always behind the generation that replaced it). The node re-bootstraps as
// a follower of the new leader from fresh snapshots, discarding whatever
// divergent tail it committed after the router stopped acknowledging it —
// those rows were never acked through generation G, so dropping them loses
// nothing the cluster promised. Between the fence on these two endpoints
// and the fence on the write path (refuseFencedWrite), at most one node per
// partition accepts writes for any generation: split-brain requires two
// nodes at the same generation both in the leader role, and the generation
// allocator (the router) hands each generation to exactly one node.

// WithPromotionWALDir sets where a promoted follower opens its write-ahead
// log. Each promotion attaches a WAL under a fresh subdirectory (one per
// generation), seeded with a checkpoint of the replicated state, so the
// promoted leader is exactly as durable as a leader started with -wal-dir.
// A follower without it refuses promotion with 409 and keeps following, so
// an undurable node never becomes a leader by accident.
func WithPromotionWALDir(dir string) Option {
	return func(c *config) { c.promoteWALDir = dir }
}

type wirePromote struct {
	Generation uint64 `json:"generation"`
}

type promoteResponse struct {
	Promoted   bool     `json:"promoted"`
	Generation uint64   `json:"generation"`
	Durable    bool     `json:"durable"`
	LSNs       []uint64 `json:"lsns,omitempty"`
}

type wireDemote struct {
	Generation uint64 `json:"generation"`
	Leader     string `json:"leader"`
}

type demoteResponse struct {
	Demoted    bool   `json:"demoted"`
	Generation uint64 `json:"generation"`
	Leader     string `json:"leader"`
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epSwap, time.Since(t0), status) }()

	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	body, err := readBody(r, nil)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var wp wirePromote
	if err := strictUnmarshal(body, &wp); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if wp.Generation == 0 {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("serve: promote needs a generation ≥ 1"))
		return
	}
	cur := s.gen.Load()
	f := s.repl.Load()
	if f == nil {
		// Already a leader. An equal generation is a retried promotion whose
		// ack was lost — re-ack it; a higher one is a router that moved on and
		// is re-asserting this node (adopt it); a lower one is a stale router.
		if wp.Generation < cur {
			status = http.StatusConflict
			writeError(w, status, fmt.Errorf("serve: promote generation %d is behind node generation %d", wp.Generation, cur))
			return
		}
		s.gen.Store(wp.Generation)
		writeJSON(w, http.StatusOK, s.promotedResponse(wp.Generation))
		return
	}
	if wp.Generation <= cur {
		status = http.StatusConflict
		writeError(w, status, fmt.Errorf("serve: promote generation %d is not above node generation %d", wp.Generation, cur))
		return
	}
	if s.cfg.promoteWALDir == "" {
		// A leader without a log would acknowledge writes a crash loses. The
		// node keeps following; the router waits or picks someone else.
		status = http.StatusConflict
		writeError(w, status, fmt.Errorf("serve: promote refused: this follower has no -promote-wal-dir (WithPromotionWALDir), so it cannot lead durably"))
		return
	}

	// Stop tailing the old leader before anything else: once the WAL attach
	// below checkpoints the index, replicated records applied concurrently
	// would land in the engine but not in the new log and be lost on crash.
	f.stop()

	if err := s.attachPromotionWAL(wp.Generation); err != nil {
		// Leadership without durability is not leadership: resume following
		// (fresh control channels, same leader and cursor) and let the
		// router retry or pick someone else.
		s.resumeFollowing(f)
		status = http.StatusInternalServerError
		writeError(w, status, fmt.Errorf("serve: promote: attach wal: %w", err))
		return
	}

	s.gen.Store(wp.Generation)
	s.repl.Store(nil)
	// Republishing the same index under a new box generation changes the
	// replication source token: followers of this node (there may be none
	// yet) treat the promoted state as the new history and re-bootstrap.
	s.Swap(s.Index())
	writeJSON(w, http.StatusOK, s.promotedResponse(wp.Generation))
}

func (s *Server) promotedResponse(gen uint64) promoteResponse {
	idx := s.Index()
	ws := idx.WALStats()
	return promoteResponse{
		Promoted:   true,
		Generation: gen,
		Durable:    ws.Enabled && ws.Err == nil,
		LSNs:       wireLSNs(idx),
	}
}

// attachPromotionWAL opens the promoted node's own write-ahead log under a
// per-generation directory. MkdirTemp keeps retried promotions of the same
// generation (crash between attach and ack) from colliding with the
// half-attached directory a previous attempt left behind.
func (s *Server) attachPromotionWAL(gen uint64) error {
	if err := os.MkdirAll(s.cfg.promoteWALDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.cfg.promoteWALDir, fmt.Sprintf("gen-%d-", gen))
	if err != nil {
		return err
	}
	return s.Index().AttachWAL(dir, s.cfg.loadOpts...)
}

// resumeFollowing restarts the pull loop after a failed promotion. The old
// followerState's control channels are spent (stop closed them), so the
// loop gets a fresh state around the same leader, cursor, and counters.
func (s *Server) resumeFollowing(old *followerState) {
	nf := newFollowerState(old.leaderURL, &s.cfg)
	nf.source = old.source
	nf.lag.Store(old.lag.Load())
	nf.lastPull.Store(old.lastPull.Load())
	nf.pulls.Store(old.pulls.Load())
	nf.pullErrs.Store(old.pullErrs.Load())
	nf.bootstraps.Store(old.bootstraps.Load())
	s.repl.Store(nf)
	go s.followLoop(nf)
}

func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epSwap, time.Since(t0), status) }()

	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	body, err := readBody(r, nil)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var wd wireDemote
	if err := strictUnmarshal(body, &wd); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if wd.Generation == 0 || wd.Leader == "" {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("serve: demote needs a generation ≥ 1 and a leader url"))
		return
	}
	cur := s.gen.Load()
	old := s.repl.Load()
	if old != nil {
		// Already a follower. Same leader at a covered generation is a
		// retried demotion — re-ack; a newer generation naming a different
		// leader re-points this follower through a full re-bootstrap below.
		if wd.Generation < cur {
			status = http.StatusConflict
			writeError(w, status, fmt.Errorf("serve: demote generation %d is behind node generation %d", wd.Generation, cur))
			return
		}
		if old.leaderURL == trimURL(wd.Leader) {
			s.gen.Store(wd.Generation)
			writeJSON(w, http.StatusOK, demoteResponse{Demoted: true, Generation: wd.Generation, Leader: old.leaderURL})
			return
		}
	} else if wd.Generation <= cur {
		// A leader only steps down for a generation strictly above its own:
		// equal means this node IS that generation's leader.
		status = http.StatusConflict
		writeError(w, status, fmt.Errorf("serve: demote generation %d is not above node generation %d", wd.Generation, cur))
		return
	}

	// Build the new follower state and bootstrap from the new leader BEFORE
	// touching the serving state: if the new leader is unreachable the node
	// stays in its current role and the router retries on its next probe.
	nf := newFollowerState(wd.Leader, &s.cfg)
	idx, src, err := nf.bootstrap()
	if err != nil {
		status = http.StatusServiceUnavailable
		writeError(w, status, fmt.Errorf("serve: demote: bootstrap from %s: %w", nf.leaderURL, err))
		return
	}
	nf.source = src

	// Stop whatever was driving the index, fence the generation, install the
	// follower state (writes start refusing with the new leader hint), then
	// swap in the bootstrapped index. Ordering matters: repl before Swap, so
	// no write can slip into the new index between the two stores. The old
	// index — and with it any divergent unacked tail this deposed leader
	// still held — is closed and discarded.
	if old != nil {
		old.stop()
	}
	s.gen.Store(wd.Generation)
	s.repl.Store(nf)
	wasOwned := s.ownsIndex.Swap(true)
	if oldIdx := s.Swap(idx); wasOwned {
		oldIdx.Close()
	}
	go s.followLoop(nf)
	writeJSON(w, http.StatusOK, demoteResponse{Demoted: true, Generation: wd.Generation, Leader: nf.leaderURL})
}
