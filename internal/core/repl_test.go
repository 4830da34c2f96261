package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/query"
)

func replTestEngine(t *testing.T, fs faultfs.FS, dir string) *Engine {
	t.Helper()
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	cfg := Config{
		Roles: []query.Role{query.Attractive, query.Repulsive},
		WAL:   &WALConfig{Dir: dir, FS: fs, Policy: SyncNever},
	}
	e, err := New(data, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// snapshotThenTail bootstraps a follower engine from SaveWithLSN and applies
// the leader's WALTail from that LSN — the full replication round trip.
func TestReplSnapshotPlusTailRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	e := replTestEngine(t, fs, "wal")
	defer e.Close()
	for i := 0; i < 20; i++ {
		if _, err := e.Insert([]float64{float64(i), float64(-i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	e.Remove(5)

	var snap bytes.Buffer
	lsn, err := e.SaveWithLSN(&snap)
	if err != nil {
		t.Fatalf("SaveWithLSN: %v", err)
	}
	if lsn != e.LastLSN() {
		t.Fatalf("snapshot LSN %d != LastLSN %d", lsn, e.LastLSN())
	}

	// More churn after the snapshot: the tail must carry it.
	for i := 0; i < 7; i++ {
		if _, err := e.Insert([]float64{100, float64(i)}); err != nil {
			t.Fatalf("post-snapshot insert: %v", err)
		}
	}
	e.Remove(1)

	f, err := Load(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("Load snapshot: %v", err)
	}
	if f.LastLSN() != lsn {
		t.Fatalf("follower bootstrap LSN %d, want %d", f.LastLSN(), lsn)
	}

	var tail bytes.Buffer
	info, err := e.WALTail(&tail, f.LastLSN(), 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	if info.Gap {
		t.Fatalf("unexpected gap: %+v", info)
	}
	if info.Last != e.LastLSN() || info.LeaderLSN != e.LastLSN() {
		t.Fatalf("tail reached %d (leader %d), want %d", info.Last, info.LeaderLSN, e.LastLSN())
	}
	applied, n, err := f.ApplyWALStream(bytes.NewReader(tail.Bytes()))
	if err != nil {
		t.Fatalf("ApplyWALStream: %v", err)
	}
	if applied != e.LastLSN() || n != info.Records {
		t.Fatalf("applied to %d (%d records), want %d (%d)", applied, n, e.LastLSN(), info.Records)
	}

	// The follower must now answer exactly like the leader.
	spec := query.Spec{Point: []float64{2, 2}, K: 10,
		Roles:   []query.Role{query.Attractive, query.Repulsive},
		Weights: []float64{1, 1}}
	want, err := e.TopK(spec)
	if err != nil {
		t.Fatalf("leader TopK: %v", err)
	}
	got, err := f.TopK(spec)
	if err != nil {
		t.Fatalf("follower TopK: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower %d results, leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: follower %+v, leader %+v", i, got[i], want[i])
		}
	}
	if f.Len() != e.Len() || f.Total() != e.Total() {
		t.Fatalf("follower len/total %d/%d, leader %d/%d", f.Len(), f.Total(), e.Len(), e.Total())
	}

	// Re-applying the same tail is a no-op (idempotence by LSN).
	applied2, n2, err := f.ApplyWALStream(bytes.NewReader(tail.Bytes()))
	if err != nil || applied2 != applied || n2 != 0 {
		t.Fatalf("re-apply: applied %d records %d err %v, want %d/0/nil", applied2, n2, err, applied)
	}
}

// A follower ahead of the leader (leader restart lost its tail) must see a
// gap, not an empty tail it could mistake for being caught up.
func TestReplTailFollowerAheadIsGap(t *testing.T) {
	fs := faultfs.NewMem()
	e := replTestEngine(t, fs, "wal")
	defer e.Close()
	var buf bytes.Buffer
	info, err := e.WALTail(&buf, e.LastLSN()+10, 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	if !info.Gap {
		t.Fatalf("from > leader LSN must report a gap: %+v", info)
	}
}

// Checkpointing retires covered log files; a tail request from before the
// checkpoint must then report a gap (the follower re-bootstraps), never an
// incomplete stream that looks complete.
func TestReplTailAfterCheckpointRetireIsGap(t *testing.T) {
	fs := faultfs.NewMem()
	e := replTestEngine(t, fs, "wal")
	defer e.Close()
	for i := 0; i < 10; i++ {
		if _, err := e.Insert([]float64{float64(i), 0}); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	// Seal the current log file so the checkpoint can retire it, then write
	// more so the leader LSN moves past the retired range.
	e.wal.Load().rotate()
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Insert([]float64{0, float64(i)}); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	var buf bytes.Buffer
	info, err := e.WALTail(&buf, 0, 0)
	if err != nil {
		t.Fatalf("WALTail: %v", err)
	}
	if !info.Gap {
		t.Fatalf("tail across a retired range must report a gap: %+v", info)
	}
	// From the checkpoint's LSN the tail is contiguous again.
	buf.Reset()
	info, err = e.WALTail(&buf, 10, 0)
	if err != nil || info.Gap || info.Last != e.LastLSN() {
		t.Fatalf("tail from checkpoint LSN: info %+v err %v", info, err)
	}
}

// A capped tail must stop cleanly at a record boundary without reporting a
// gap, and resuming from Last chunk by chunk must reconstruct exactly the
// state one unbounded tail would have — the discipline that keeps the
// leader's per-request buffer bounded for a far-behind follower.
func TestReplTailCappedResumes(t *testing.T) {
	fs := faultfs.NewMem()
	e := replTestEngine(t, fs, "wal")
	defer e.Close()

	var snap bytes.Buffer
	lsn, err := e.SaveWithLSN(&snap)
	if err != nil {
		t.Fatalf("SaveWithLSN: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.Insert([]float64{float64(i), float64(-i)}); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}

	f, err := Load(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cursor := lsn
	chunks := 0
	for {
		var chunk bytes.Buffer
		// Small enough that one chunk holds only a few of the 50 records.
		info, err := e.WALTail(&chunk, cursor, 64)
		if err != nil {
			t.Fatalf("WALTail chunk %d: %v", chunks, err)
		}
		if info.Gap {
			t.Fatalf("capped tail reported a gap: %+v", info)
		}
		if info.Capped && info.Last >= info.LeaderLSN {
			t.Fatalf("Capped with nothing missing: %+v", info)
		}
		if _, _, err := f.ApplyWALStream(bytes.NewReader(chunk.Bytes())); err != nil {
			t.Fatalf("apply chunk %d: %v", chunks, err)
		}
		if f.LastLSN() != info.Last {
			t.Fatalf("chunk %d applied to %d, tail said %d", chunks, f.LastLSN(), info.Last)
		}
		cursor = info.Last
		chunks++
		if !info.Capped {
			if info.Last != e.LastLSN() {
				t.Fatalf("uncapped final chunk reached %d, leader at %d", info.Last, e.LastLSN())
			}
			break
		}
		if chunks > 200 {
			t.Fatal("capped tail never completed")
		}
	}
	if chunks < 2 {
		t.Fatalf("cap of 64 bytes produced only %d chunk(s); the cap did nothing", chunks)
	}
	if f.Len() != e.Len() || f.LastLSN() != e.LastLSN() {
		t.Fatalf("follower len/lsn %d/%d, leader %d/%d", f.Len(), f.LastLSN(), e.Len(), e.LastLSN())
	}
}

// A truncated stream must fail to apply, and a stream with an LSN gap must
// fail with ErrReplGap.
func TestReplApplyRejectsDamage(t *testing.T) {
	fs := faultfs.NewMem()
	e := replTestEngine(t, fs, "wal")
	defer e.Close()
	var snap bytes.Buffer
	if _, err := e.SaveWithLSN(&snap); err != nil {
		t.Fatalf("SaveWithLSN: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Insert([]float64{float64(i), 1}); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	var tail bytes.Buffer
	if info, err := e.WALTail(&tail, 0, 0); err != nil || info.Gap {
		t.Fatalf("WALTail: %+v %v", info, err)
	}

	// Truncated mid-record.
	f, err := Load(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cut := tail.Len() - 5
	if _, _, err := f.ApplyWALStream(bytes.NewReader(tail.Bytes()[:cut])); !errors.Is(err, ErrReplGap) {
		t.Fatalf("truncated stream: err %v, want ErrReplGap", err)
	}

	// LSN gap: skip the first record after the header.
	f2, err := Load(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	raw := tail.Bytes()
	// First record starts after the 8-byte magic; its length is at +4.
	plen := int(uint32(raw[12]) | uint32(raw[13])<<8 | uint32(raw[14])<<16 | uint32(raw[15])<<24)
	gapped := append(append([]byte(nil), raw[:8]...), raw[8+16+plen:]...)
	if _, _, err := f2.ApplyWALStream(bytes.NewReader(gapped)); !errors.Is(err, ErrReplGap) {
		t.Fatalf("gapped stream: err %v, want ErrReplGap", err)
	}
}

// leaderTail builds a WAL-backed leader, snapshots it while still empty,
// applies n scripted mutations, and returns the leader with the snapshot and
// the WAL tail that follows it.
func leaderTail(t *testing.T, fs faultfs.FS, n int, seed int64) (leader *Engine, snap, tail []byte) {
	t.Helper()
	leader = newWALEngine(t, fs, "wal", WALConfig{Policy: SyncNever})
	var snapBuf, tailBuf bytes.Buffer
	lsn, err := leader.SaveWithLSN(&snapBuf)
	if err != nil {
		t.Fatalf("SaveWithLSN: %v", err)
	}
	applyScript(t, leader, walScript(n, seed))
	if info, err := leader.WALTail(&tailBuf, lsn, 0); err != nil || info.Gap {
		t.Fatalf("WALTail: %+v %v", info, err)
	}
	return leader, snapBuf.Bytes(), tailBuf.Bytes()
}

// A follower applies its leader's tail through recovery's record loop and
// then compacts like the leader: its memtable seals past MemtableSize
// instead of holding every row applied since bootstrap, and it still
// answers exactly like the leader.
func TestReplFollowerSealsMemtable(t *testing.T) {
	leader, snap, tail := leaderTail(t, faultfs.NewMem(), 200, 36)
	defer leader.Close()
	f, err := Load(bytes.NewReader(snap), RuntimeOptions{MemtableSize: 16})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, _, err := f.ApplyWALStream(bytes.NewReader(tail)); err != nil {
		t.Fatalf("ApplyWALStream: %v", err)
	}
	waitCompactIdle(t, f)
	if segs, mem := f.Segments(); mem >= 16 {
		t.Fatalf("follower holds %d memtable rows over %d segments, want fewer than 16", mem, segs)
	}
	answersMustMatch(t, "follower", f, leader)
}

// Promoting a follower right after it applied a tail races its running
// compaction, which reads the log (rotate after a seal, maybeCheckpoint),
// and a health check reading WALStats, while AttachWAL installs the log.
// Run under -race.
func TestReplPromoteDuringCompaction(t *testing.T) {
	fs := faultfs.NewMem()
	leader, snap, tail := leaderTail(t, fs, 300, 37)
	defer leader.Close()
	for round := 0; round < 20; round++ {
		f, err := Load(bytes.NewReader(snap), RuntimeOptions{MemtableSize: 4})
		if err != nil {
			t.Fatalf("round %d: Load: %v", round, err)
		}
		if _, _, err := f.ApplyWALStream(bytes.NewReader(tail)); err != nil {
			t.Fatalf("round %d: ApplyWALStream: %v", round, err)
		}
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			for {
				select {
				case <-stop:
					return
				default:
					f.WALStats()
				}
			}
		}()
		err = f.AttachWAL(WALConfig{Dir: fmt.Sprintf("promoted-%d", round), FS: fs, Policy: SyncNever})
		close(stop)
		<-polled
		if err != nil {
			t.Fatalf("round %d: AttachWAL: %v", round, err)
		}
		waitCompactIdle(t, f)
		answersMustMatch(t, fmt.Sprintf("round %d", round), f, leader)
		if err := f.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
	}
}
