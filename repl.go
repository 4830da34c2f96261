package sdquery

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Replication surface: what a leader exports so a follower can mirror it,
// and what a follower (or any caller assembling an index from replicated
// state) needs to apply the stream. An index replicates as one stream — a
// snapshot plus the WAL tail after it — and its position is one LSN.
//
// See internal/core/repl.go for the stream formats and the gap contract;
// package serve wires these methods to the /v1/repl/{manifest,segment,wal}
// endpoints and runs the follower's pull loop.

// ErrReplGap reports a non-contiguous WAL tail: the range a follower needs
// was retired by a checkpoint, or the stream itself was damaged. The only
// safe continuation is a full re-bootstrap from a fresh snapshot.
var ErrReplGap = core.ErrReplGap

// ErrIDExists reports an InsertWithID whose ID is not above the index's ID
// space: the slot was already assigned (by this writer or an earlier
// incarnation of it). Callers implementing idempotent retries compare the
// occupying row with PointByID to distinguish their own duplicate from a
// genuine collision.
var ErrIDExists = core.ErrIDExists

// ReplTail describes a WAL-tail export; see core.WALTailInfo.
type ReplTail struct {
	From, Last uint64
	LeaderLSN  uint64
	Records    int
	Gap        bool
	Capped     bool
}

// LSN returns the index's replication position: the log sequence number of
// the last applied mutation (0 before any was logged).
func (s *SDIndex) LSN() uint64 { return s.eng.LastLSN() }

// ReplSnapshot streams the index's current snapshot in the checkpoint format
// and returns the WAL LSN the stream covers.
func (s *SDIndex) ReplSnapshot(w io.Writer) (uint64, error) { return s.eng.SaveWithLSN(w) }

// ReplWALTail streams the WAL records after LSN from, writing at most
// maxBytes of records per call (0 = unbounded; a capped export sets Capped
// and the caller resumes from Last); see core.Engine.WALTail for the gap
// contract.
func (s *SDIndex) ReplWALTail(from uint64, w io.Writer, maxBytes int) (ReplTail, error) {
	info, err := s.eng.WALTail(w, from, maxBytes)
	return ReplTail(info), err
}

// ApplyReplWAL applies a ReplWALTail stream, idempotently by LSN, and reports
// how many records actually applied. The index must have been built from the
// same leader's snapshot (NewFollowerIndex); applying an unrelated stream
// fails with ErrReplGap. A follower index is read-only by contract, queried
// but never written directly.
func (s *SDIndex) ApplyReplWAL(r io.Reader) (int, error) {
	_, n, err := s.eng.ApplyWALStream(r)
	return n, err
}

// AttachWAL makes a follower index durable in place — the promotion path:
// an index assembled from a leader's snapshot stream (NewFollowerIndex)
// owns no log, and a replica elected leader must become durable before it
// accepts writes. AttachWAL writes a fresh MANIFEST under dir and attaches a
// WAL seeded with a checkpoint of the index's current state; mutations from
// here on log at the LSN the replicated history left off at, so the index's
// own followers see one contiguous stream. dir must not already hold a
// durable index. The option list supplies the WAL knobs to run with
// (WithSyncPolicy, WithSyncInterval, WithWALFS); the caller must guarantee
// no mutations are in flight during the attach.
func (s *SDIndex) AttachWAL(dir string, opts ...SDOption) error {
	cfg := parseOptions(opts)
	cfg.walDir = dir
	if err := writeManifest(&cfg); err != nil {
		return err
	}
	if err := s.eng.AttachWAL(cfg.walConfig()); err != nil {
		return fmt.Errorf("sdquery: attach wal: %w", err)
	}
	return nil
}

// Total reports the size of the index's global ID space: every indexed ID
// is below it, and the next caller-assigned ID must not be. (Len counts
// live rows; Total counts the space, removals included.)
func (s *SDIndex) Total() int { return s.eng.Total() }

// Dims reports the index's dimensionality.
func (s *SDIndex) Dims() int { return len(s.roles) }

// InsertWithID inserts p under a caller-assigned global ID, which must be
// above every ID the index has seen (IDs are append-only and ascending); an
// ID already inside the space fails with ErrIDExists. A distributed writer
// (cmd/sdrouter) assigns cluster-unique ascending IDs and retries ambiguous
// failures under the same ID — the ErrIDExists + PointByID pair is what
// makes that retry provably idempotent. Durability matches Insert.
func (s *SDIndex) InsertWithID(id int, p []float64) error { return s.eng.InsertWithID(id, p) }

// PointByID returns a copy of the coordinates indexed under a global ID —
// live or tombstoned — with ok=false when the ID locates nowhere (never
// inserted, or reclaimed by compaction after removal).
func (s *SDIndex) PointByID(id int) ([]float64, bool) { return s.eng.Row(id) }

// NewFollowerIndex assembles an index from a leader's ReplSnapshot stream.
// The result serves reads exactly like the leader's index did at the
// snapshot; advance it with ApplyReplWAL as the leader's log grows. It
// defaults to WithShards(0) and WithWorkers(0); the option list supplies
// runtime knobs only (workers, memtable) — structure comes from the stream.
func NewFollowerIndex(snap io.Reader, opts ...SDOption) (*ShardedIndex, error) {
	cfg := parseOptions(shardedDefaults(opts))
	eng, err := core.Load(snap, cfg.rt)
	if err != nil {
		err = fmt.Errorf("sdquery: follower: %w", err)
	}
	return cfg.wrap(eng, err)
}
