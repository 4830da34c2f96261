package core

// Replication streaming: the engine-level primitives a leader uses to ship
// its state to a follower and a follower uses to apply it. The wire reuses
// the two formats the engine already trusts with durability — a snapshot
// stream is exactly the checkpoint format (persist.go), and a WAL tail
// stream is exactly the log-record framing (wal.go: magic header, then
// crc | len | lsn | payload records) — so replication inherits their
// validation for free. A follower is bootstrapped by the same Load that
// reads a CHECKPOINT and advanced by the same record loop that crash
// recovery replays a log file with (applyRecords in wal.go: CRC, length
// cap, idempotent-by-LSN apply); the only difference is that a stream
// that stops early is an error here and a torn tail to truncate there.
//
// The contract is pull-based and stateless on the leader: a follower asks
// for "records after LSN x" and the leader scans its log files. Checkpoints
// retire covered log files, so a follower that lags past the oldest
// retained record cannot be caught up incrementally — the tail reports a
// gap and the follower re-bootstraps from a fresh snapshot (the same
// recovery shape as Redis PSYNC falling back to full sync or Raft's
// InstallSnapshot).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrReplGap reports that a WAL tail could not be served or applied
// contiguously: the requested LSN range is no longer retained (checkpoint
// retired it), the stream skipped sequence numbers, or the follower is
// ahead of the leader (a leader restart that lost unacknowledged tail).
// The only safe continuation is a full re-bootstrap from a snapshot.
var ErrReplGap = errors.New("core: replication gap: WAL tail is not contiguous with the applied state")

// LastLSN reports the log sequence number of the last mutation folded into
// the engine's current snapshot — the follower's replication cursor and the
// leader's lag reference. 0 on an engine with no logged mutations.
func (e *Engine) LastLSN() uint64 { return e.snap.Load().walLSN }

// SaveWithLSN streams the engine's current snapshot in the checkpoint/Save
// format and reports the WAL LSN that snapshot covers, atomically with the
// bytes: a follower that loads the stream and then tails the log from the
// returned LSN observes every mutation exactly once.
func (e *Engine) SaveWithLSN(w io.Writer) (uint64, error) {
	sn := e.snap.Load()
	if err := e.saveSnapshot(w, sn); err != nil {
		return 0, err
	}
	return sn.walLSN, nil
}

// Row returns a copy of the coordinates indexed under a global ID, live or
// tombstoned, with ok=false when the ID locates nowhere (never inserted, or
// removed and physically reclaimed by compaction). The replication layer
// uses it to prove idempotence: a retried caller-assigned insert is a
// duplicate exactly when the occupying row's coordinates match.
func (e *Engine) Row(id int) ([]float64, bool) {
	sn := e.snap.Load()
	seg, local, ok := sn.locate(id)
	if !ok {
		return nil, false
	}
	out := make([]float64, e.dims)
	cols, stride, _, _ := sn.layer(seg, e.dims)
	copyRow(cols, stride, local, out)
	return out, true
}

// WALTailInfo describes one WALTail export.
type WALTailInfo struct {
	// From is the cursor the tail was requested after; Last is the highest
	// LSN written to the stream (== From when nothing newer was retained).
	From, Last uint64
	// LeaderLSN is the engine's own last LSN at the time of the scan — the
	// follower's lag is LeaderLSN − Last.
	LeaderLSN uint64
	// Records is the number of records written to the stream.
	Records int
	// Gap reports that the stream does NOT reach LeaderLSN contiguously:
	// records after From were retired by a checkpoint, or From is ahead of
	// the leader entirely. The caller must re-bootstrap from a snapshot; the
	// records that were written (if any) must be discarded.
	Gap bool
	// Capped reports that the export stopped at the caller's size limit
	// rather than at LeaderLSN. The stream is a clean contiguous prefix —
	// apply it and ask again from Last; Capped and Gap are mutually
	// exclusive.
	Capped bool
}

// WALTail streams retained WAL records with LSN > from, in order, in the
// log's own framing (file magic header, then crc|len|lsn|payload records),
// and reports how far the stream reaches. It requires a WAL.
//
// maxBytes bounds the export: once at least that many record bytes are
// written the scan stops cleanly at a record boundary and reports Capped —
// a far-behind follower is caught up over several bounded responses instead
// of one response materializing the whole retained log. 0 (or negative)
// streams everything.
//
// The scan holds the checkpoint lock — checkpoints retire log files, and a
// file must not disappear mid-scan — but not the append lock: records
// published before the scan started are fully written (appends complete
// before their snapshot publishes), and a torn in-flight append past
// LeaderLSN merely ends the scan early without a gap.
func (e *Engine) WALTail(w io.Writer, from uint64, maxBytes int) (WALTailInfo, error) {
	l := e.wal.Load()
	if l == nil {
		return WALTailInfo{}, fmt.Errorf("core: WALTail: engine has no write-ahead log")
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	info := WALTailInfo{From: from, Last: from, LeaderLSN: e.snap.Load().walLSN}
	if from > info.LeaderLSN {
		info.Gap = true
		return info, nil
	}
	if _, err := w.Write(walMagic[:]); err != nil {
		return info, err
	}
	seqs, err := listWALFiles(l.fs, l.dir)
	if err != nil {
		return info, fmt.Errorf("core: WALTail: %w", err)
	}
	expect := from + 1
	written := 0
	var werr error
scan:
	for _, seq := range seqs {
		f, err := l.fs.OpenFile(l.pathFor(seq), os.O_RDONLY, 0)
		if err != nil {
			// Racing a concurrent retire is impossible (we hold ckptMu); an
			// unopenable file is a hard error.
			return info, fmt.Errorf("core: WALTail: open %s: %w", l.pathFor(seq), err)
		}
		br := bufio.NewReader(f)
		if !readWALHeader(br) {
			f.Close()
			break scan // torn file header: this file is all in-flight tail
		}
		clean := scanWALRecords(br, func(lsn uint64, rec, payload []byte) bool {
			switch {
			case lsn < expect:
				return true // duplicate or already-applied record: skip
			case lsn == expect:
				if _, werr = w.Write(rec); werr != nil {
					return false
				}
				if _, werr = w.Write(payload); werr != nil {
					return false
				}
				expect++
				info.Records++
				written += len(rec) + len(payload)
				if maxBytes > 0 && written >= maxBytes {
					info.Capped = true
					return false
				}
				return true
			default:
				info.Gap = true // LSNs jumped: the range in between was retired
				return false
			}
		})
		f.Close()
		if werr != nil {
			return info, werr
		}
		if info.Gap || info.Capped || !clean {
			// A gap ends the export; so does hitting the size cap; a torn
			// record is the current file's in-flight tail and also ends it
			// (nothing valid follows).
			break scan
		}
	}
	info.Last = expect - 1
	// The stream must reach the LSN the engine had already published when
	// the scan began; stopping short means records the follower needs were
	// retired (or lost), which only a re-bootstrap can repair — unless the
	// stop was the caller's own size cap, which the caller resumes past.
	if info.Last < info.LeaderLSN && !info.Capped {
		info.Gap = true
	}
	if info.Capped && info.Last >= info.LeaderLSN {
		// The cap landed exactly on the leader's position: nothing is
		// actually missing.
		info.Capped = false
	}
	return info, nil
}

// ApplyWALStream reads a WALTail stream and applies it to the engine through
// crash recovery's own record loop (applyRecords): records at or below the
// engine's LastLSN are skipped, the successor record applies, anything else
// stops the stream. Unlike recovery, a stop is an error — the transport below
// the stream is reliable, so damage means protocol violation, and the caller
// must re-bootstrap. A sound insert outside the value domain (an older
// leader's row) is an ErrWAL error instead: re-bootstrapping cannot help, as
// the leader's snapshot holds the same row. Returns the new LastLSN and the
// number of records applied (skips excluded). Applied inserts fill the
// memtable like local ones, so the compactor is kicked the same way: a
// follower seals and folds on its own.
func (e *Engine) ApplyWALStream(r io.Reader) (applied uint64, records int, err error) {
	run := e.applyRecords(r, e.LastLSN())
	if e.needsCompaction() {
		e.kickCompactor()
	}
	switch {
	case run.err != nil:
		err = run.err
	case run.valid == 0:
		err = fmt.Errorf("%w: bad stream header", ErrReplGap)
	case !run.clean:
		err = fmt.Errorf("%w: stream breaks off after LSN %d (LSN gap, invalid payload, or torn or corrupt record)", ErrReplGap, run.lsn)
	}
	return run.lsn, run.records, err
}
