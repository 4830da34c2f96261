package serve

import (
	"fmt"
	"net/http"
	"os"
	"time"

	sdquery "repro"
)

// Zero-downtime index swap. POST /v1/admin/swap {"path": "file.sdx"} loads
// a persisted index (the binary Save/Load format) and publishes it with one
// atomic pointer store. The load — file read, segment decode, deterministic
// tree rebuild — happens entirely on the admin request's goroutine while
// queries keep flowing against the old index; the swap itself is the
// pointer store. Requests that grabbed the old index before the store keep
// using it to completion: every query path takes the index exactly once
// (handlers and the coalescer grab it per request/batch), and within an
// index the engine's snapshot discipline pins a consistent row set, so no
// request can observe half an old index and half a new one.
//
// The old index is closed after the swap. Close only closes its WAL —
// queries already running on the old index still answer correctly
// (documented on SDIndex.Close), so closing immediately is safe.

// Swap atomically replaces the serving index and returns the previous one.
// In-flight requests finish on whichever index they grabbed. The caller
// owns the returned index (the HTTP swap handler closes it; an in-process
// caller may want to keep it).
func (s *Server) Swap(idx Index) Index {
	// The new box's generation makes every cached entry stale at once:
	// entries are versioned by (gen, epoch) and no entry carries the new gen.
	old := s.box.Swap(s.newBox(idx))
	s.met.swaps.Add(1)
	return old.idx
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epSwap, time.Since(t0), status) }()

	// One swap at a time: concurrent admin calls would race their loads and
	// leak whichever index lost the pointer store.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	// On a follower the replication loop owns the index; an admin swap would
	// fork it from the leader.
	if status = s.refuseFollowerWrite(w); status != http.StatusOK {
		return
	}

	body, err := readBody(r, nil)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var ws wireSwap
	if err := strictUnmarshal(body, &ws); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if ws.Path == "" {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("swap needs a path"))
		return
	}
	var next *sdquery.SDIndex
	f, err := os.Open(ws.Path)
	if err == nil {
		next, err = sdquery.LoadSDIndex(f, s.cfg.loadOpts...)
		f.Close()
	}
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("load %s: %w", ws.Path, err))
		return
	}
	if old := s.Swap(next); old != next {
		old.Close()
	}
	writeJSON(w, http.StatusOK, swapResponse{Swapped: true, Points: next.Len()})
}
