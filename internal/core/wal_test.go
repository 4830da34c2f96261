package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/query"
)

// walRoles is the fixed role vector the WAL tests query under.
var walRoles = []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}

// walMutation is one scripted engine mutation: a remove when remove is set,
// an insert of row otherwise.
type walMutation struct {
	remove bool
	id     int // remove target
	row    []float64
}

// walScript builds a deterministic mutation mix: inserts with occasional
// removes of already-inserted rows.
func walScript(n int, seed int64) []walMutation {
	rng := rand.New(rand.NewSource(seed))
	var muts []walMutation
	nextID := 0
	var ids []int
	for len(muts) < n {
		if len(ids) > 4 && rng.Intn(4) == 0 {
			victim := ids[rng.Intn(len(ids))]
			muts = append(muts, walMutation{remove: true, id: victim})
		} else {
			row := make([]float64, len(walRoles))
			for d := range row {
				row[d] = rng.Float64()
			}
			muts = append(muts, walMutation{row: row})
			ids = append(ids, nextID)
			nextID++
		}
	}
	return muts
}

// applyScript runs the first m mutations against an engine.
func applyScript(t *testing.T, e *Engine, muts []walMutation) {
	t.Helper()
	for i, mu := range muts {
		if mu.remove {
			if _, err := e.RemoveDurable(mu.id); err != nil {
				t.Fatalf("mutation %d: remove %d: %v", i, mu.id, err)
			}
		} else if _, err := e.Insert(mu.row); err != nil {
			t.Fatalf("mutation %d: insert: %v", i, err)
		}
	}
}

// oracleFor replays the first m mutations on a fresh, WAL-less engine with
// compaction disabled — the ground truth a recovered engine must match.
func oracleFor(t *testing.T, muts []walMutation, m int) *Engine {
	t.Helper()
	e, err := New(nil, Config{Roles: walRoles, RuntimeOptions: RuntimeOptions{DisableCompaction: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range muts[:m] {
		if mu.remove {
			e.Remove(mu.id)
		} else if _, err := e.Insert(mu.row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// walSpecs is a deterministic query battery exercising ties, ignored
// dimensions, and k larger than the live count.
func walSpecs() []query.Spec {
	rng := rand.New(rand.NewSource(99))
	specs := make([]query.Spec, 0, 6)
	for i := 0; i < 6; i++ {
		sp := query.Spec{
			Point:   make([]float64, len(walRoles)),
			K:       1 + rng.Intn(12),
			Roles:   append([]query.Role(nil), walRoles...),
			Weights: make([]float64, len(walRoles)),
		}
		for d := range sp.Point {
			sp.Point[d] = rng.Float64()
			sp.Weights[d] = rng.Float64()
		}
		specs = append(specs, sp)
	}
	return specs
}

// answersMustMatch asserts got answers byte-identically to want on the
// battery: same IDs, bit-equal scores, same Len.
func answersMustMatch(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("%s: Len = %d, want %d", label, g, w)
	}
	for si, sp := range walSpecs() {
		gr, err := got.TopK(sp)
		if err != nil {
			t.Fatalf("%s: spec %d: %v", label, si, err)
		}
		wr, err := want.TopK(sp)
		if err != nil {
			t.Fatalf("%s: spec %d oracle: %v", label, si, err)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%s: spec %d: %d results, want %d", label, si, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i].ID != wr[i].ID || math.Float64bits(gr[i].Score) != math.Float64bits(wr[i].Score) {
				t.Fatalf("%s: spec %d result %d: (%d, %x) want (%d, %x)",
					label, si, i, gr[i].ID, math.Float64bits(gr[i].Score), wr[i].ID, math.Float64bits(wr[i].Score))
			}
		}
	}
}

func newWALEngine(t *testing.T, fs faultfs.FS, dir string, wc WALConfig) *Engine {
	t.Helper()
	wc.Dir = dir
	wc.FS = fs
	e, err := New(nil, Config{Roles: walRoles, WAL: &wc, RuntimeOptions: RuntimeOptions{MemtableSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitCompactIdle waits for the background compactor to drain.
func waitCompactIdle(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.compacting.Load() || e.needsCompaction() {
		if time.Now().After(deadline) {
			t.Fatal("compactor never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALReopenRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	muts := walScript(300, 1)
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways, CheckpointBytes: 1 << 10})
	applyScript(t, e, muts)
	waitCompactIdle(t, e)
	st := e.WALStats()
	if !st.Enabled || st.Appends == 0 || st.Err != nil {
		t.Fatalf("stats before close: %+v", st)
	}
	if st.Rotations == 0 || st.Checkpoints == 0 {
		t.Fatalf("expected rotations and checkpoints with a 16-row memtable: %+v", st)
	}
	wantLSN := st.LSN
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	answersMustMatch(t, "reopened", re, oracleFor(t, muts, len(muts)))
	if lsn := re.WALStats().LSN; lsn != wantLSN {
		t.Fatalf("recovered LSN = %d, want %d", lsn, wantLSN)
	}
	// The reopened engine keeps accepting durable writes.
	if _, err := re.Insert([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALHardDropRecoversAcknowledged(t *testing.T) {
	fs := faultfs.NewMem()
	muts := walScript(120, 2)
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	applyScript(t, e, muts)
	// Hard drop: no Close, no Sync — the handle is simply abandoned, as a
	// killed process would leave it. SyncAlways acknowledged every mutation
	// only after its group commit, so recovery owes us all of them.
	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	answersMustMatch(t, "hard-drop", re, oracleFor(t, muts, len(muts)))
}

func TestWALTornTailTruncates(t *testing.T) {
	fs := faultfs.NewMem()
	muts := walScript(40, 3)
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	applyScript(t, e, muts)
	waitCompactIdle(t, e)
	e.Close()

	// Tear the tail: append garbage to the newest (live-tail) log file —
	// the file a mid-append crash would actually tear.
	names, err := fs.ReadDir("idx")
	if err != nil {
		t.Fatal(err)
	}
	tail := ""
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".wal" && n > tail {
			tail = n
		}
	}
	if tail == "" {
		t.Fatal("no wal files")
	}
	tail = "idx/" + tail
	f, err := fs.OpenFile(tail, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()
	before, _ := fs.Stat(tail)

	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatalf("recovery errored on a torn tail: %v", err)
	}
	answersMustMatch(t, "torn-tail", re, oracleFor(t, muts, len(muts)))
	after, _ := fs.Stat(tail)
	if after != before-5 {
		t.Fatalf("torn tail not physically truncated: %d bytes, want %d", after, before-5)
	}
}

// writeRecord appends one encoded WAL record to buf.
func writeRecord(buf []byte, lsn uint64, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	crc := crc32.Checksum(hdr[4:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	return append(append(buf, hdr[:]...), payload...)
}

func insertPayload(id int, row []float64) []byte {
	p := []byte{opInsert}
	p = binary.LittleEndian.AppendUint64(p, uint64(id))
	for _, c := range row {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(c))
	}
	return p
}

// seedWALDir creates a recoverable directory (checkpoint of an empty
// engine) and returns the fs to craft log files into.
func seedWALDir(t *testing.T) *faultfs.Mem {
	t.Helper()
	fs := faultfs.NewMem()
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncNever})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Remove("idx/000000001.wal")
	return fs
}

// craftLog writes a log file from raw record bytes.
func craftLog(t *testing.T, fs faultfs.FS, path string, records []byte) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(append([]byte(nil), walMagic[:]...), records...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestWALReplayIdempotentOnDuplicates(t *testing.T) {
	fs := seedWALDir(t)
	rows := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.6, 0.7, 0.8},
		{0.9, 0.1, 0.2, 0.3},
	}
	var recs []byte
	recs = writeRecord(recs, 1, insertPayload(0, rows[0]))
	recs = writeRecord(recs, 2, insertPayload(1, rows[1]))
	recs = writeRecord(recs, 2, insertPayload(1, rows[1])) // duplicated retry
	recs = writeRecord(recs, 3, insertPayload(2, rows[2]))
	craftLog(t, fs, "idx/000000001.wal", recs)

	e, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicate applied twice?)", e.Len())
	}
	if st := e.WALStats(); st.ReplayRecords != 3 || st.LSN != 3 {
		t.Fatalf("replay stats %+v, want 3 records to LSN 3", st)
	}
}

func TestWALReplayStopsAtLSNGap(t *testing.T) {
	fs := seedWALDir(t)
	row := []float64{0.1, 0.2, 0.3, 0.4}
	var recs []byte
	recs = writeRecord(recs, 1, insertPayload(0, row))
	recs = writeRecord(recs, 2, insertPayload(1, row))
	recs = writeRecord(recs, 4, insertPayload(2, row)) // gap: LSN 3 missing
	recs = writeRecord(recs, 5, insertPayload(3, row))
	craftLog(t, fs, "idx/000000001.wal", recs)

	e, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2: replay must stop at the gap", e.Len())
	}
}

// TestWALReplayRefusesOutOfDomainRow replays a log written by a build that
// accepted any finite coordinate: a sound insert past query.MaxAbs must make
// Open and a follower's stream apply fail with ErrWAL naming the record, and
// must leave every log byte in place — it is not corruption to be cut off.
func TestWALReplayRefusesOutOfDomainRow(t *testing.T) {
	fs := seedWALDir(t)
	var first, second []byte
	first = writeRecord(first, 1, insertPayload(0, []float64{1e150, -1e150, 0.3, 0.4}))
	first = writeRecord(first, 2, insertPayload(1, []float64{0.5, 1e200, 0.7, 0.8}))
	first = writeRecord(first, 3, insertPayload(2, []float64{0.9, 0.1, 0.2, 0.3}))
	second = writeRecord(second, 4, insertPayload(3, []float64{0.1, 0.1, 0.1, 0.1}))
	craftLog(t, fs, "idx/000000001.wal", first)
	craftLog(t, fs, "idx/000000002.wal", second)
	readAll := func(path string) []byte {
		t.Helper()
		f, err := fs.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before1, before2 := readAll("idx/000000001.wal"), readAll("idx/000000002.wal")

	_, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), "LSN 2") || !strings.Contains(err.Error(), "1e+150") {
		t.Fatalf("Open = %v, want ErrWAL naming LSN 2 and the bound", err)
	}
	if !bytes.Equal(readAll("idx/000000001.wal"), before1) || !bytes.Equal(readAll("idx/000000002.wal"), before2) {
		t.Fatal("a refused Open rewrote the log")
	}

	ckpt, err := fs.OpenFile("idx/"+ckptName, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Load(bufio.NewReader(ckpt), RuntimeOptions{})
	ckpt.Close()
	if err != nil {
		t.Fatal(err)
	}
	lsn, n, err := follower.ApplyWALStream(bytes.NewReader(before1))
	if !errors.Is(err, ErrWAL) || errors.Is(err, ErrReplGap) || lsn != 1 || n != 1 || follower.Len() != 1 {
		t.Fatalf("ApplyWALStream = (%d, %d, %v), Len %d; want ErrWAL after LSN 1, one row", lsn, n, err, follower.Len())
	}
}

func TestWALMissingFinalFile(t *testing.T) {
	fs := faultfs.NewMem()
	// Exactly one memtable's worth of inserts: the seal drains the memtable
	// completely, so after the rotation the live tail file holds no records.
	rng := rand.New(rand.NewSource(4))
	var muts []walMutation
	for i := 0; i < 16; i++ {
		row := make([]float64, len(walRoles))
		for d := range row {
			row[d] = rng.Float64()
		}
		muts = append(muts, walMutation{row: row})
	}
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways, CheckpointBytes: 1 << 40})
	applyScript(t, e, muts)
	waitCompactIdle(t, e)
	st := e.WALStats()
	if st.Rotations == 0 {
		t.Fatalf("no rotation after sealing: %+v", st)
	}
	e.Close()
	// Crash mid-rotation: the freshly created final file vanishes (its
	// directory entry was never fsynced). It holds no records — every
	// mutation since the last seal is in the sealed files — so recovery
	// owes the full history regardless.
	last := fmt.Sprintf("idx/%09d.wal", st.Rotations+1)
	sz, err := fs.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if sz != walHeaderLen {
		t.Skipf("final file has records (%d bytes); scenario needs an empty tail", sz)
	}
	if err := fs.Remove(last); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatalf("recovery errored on a missing final file: %v", err)
	}
	answersMustMatch(t, "missing-final", re, oracleFor(t, muts, len(muts)))
}

func TestWALSyncErrorDegradesToReadOnly(t *testing.T) {
	fs := faultfs.NewMem()
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	muts := walScript(20, 5)
	applyScript(t, e, muts)

	fs.SetSyncErr(errors.New("disk gone"))
	if _, err := e.Insert([]float64{0.5, 0.5, 0.5, 0.5}); !errors.Is(err, ErrWAL) {
		t.Fatalf("insert under fsync failure: %v, want ErrWAL", err)
	}
	if st := e.WALStats(); st.Err == nil || !errors.Is(st.Err, ErrWAL) {
		t.Fatalf("engine not degraded: %+v", st)
	}
	// Sticky: later mutations fail fast, reads keep working.
	if _, err := e.Insert([]float64{0.5, 0.5, 0.5, 0.5}); !errors.Is(err, ErrWAL) {
		t.Fatalf("second insert: %v, want ErrWAL", err)
	}
	live := -1
	for id := 0; id < 20; id++ {
		if e.Alive(id) {
			live = id
			break
		}
	}
	if live < 0 {
		t.Fatal("no live id to remove")
	}
	if _, err := e.RemoveDurable(live); !errors.Is(err, ErrWAL) {
		t.Fatalf("remove: %v, want ErrWAL", err)
	}
	if _, err := e.TopK(walSpecs()[0]); err != nil {
		t.Fatalf("reads must survive degradation: %v", err)
	}
}

func TestWALWriteErrorPublishesNothing(t *testing.T) {
	fs := faultfs.NewMem()
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	applyScript(t, e, walScript(10, 6))
	before := e.Len()
	fs.SetWriteErr(errors.New("io error"))
	if _, err := e.Insert([]float64{0.5, 0.5, 0.5, 0.5}); !errors.Is(err, ErrWAL) {
		t.Fatalf("insert: %v, want ErrWAL", err)
	}
	if e.Len() != before {
		t.Fatalf("failed insert became visible: Len %d, want %d", e.Len(), before)
	}
}

func TestWALShortWriteRepairsAndRetries(t *testing.T) {
	fs := faultfs.NewMem()
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	muts := walScript(10, 7)
	applyScript(t, e, muts)

	fs.ShortWriteOnce(5) // the next record lands a 5-byte torn prefix
	if _, err := e.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("insert with one short write must repair and succeed: %v", err)
	}
	if st := e.WALStats(); st.Err != nil {
		t.Fatalf("one-shot short write poisoned the log: %v", st.Err)
	}
	// The repair truncated the torn prefix: recovery sees a clean log and
	// exactly one copy of the record.
	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleFor(t, muts, len(muts))
	if _, err := want.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	answersMustMatch(t, "short-write", re, want)
}

func TestWALGroupCommitSharesFsyncs(t *testing.T) {
	fs := faultfs.NewMem()
	fs.SetSyncDelay(2 * time.Millisecond) // slow disk: commit windows fill up
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways})
	const writers, each = 8, 16
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < each; i++ {
				if _, err := e.Insert([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := e.WALStats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("no group commit: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	e.Close()
	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != writers*each {
		t.Fatalf("recovered %d rows, want %d", re.Len(), writers*each)
	}
}

func TestWALCheckpointRetiresFiles(t *testing.T) {
	fs := faultfs.NewMem()
	muts := walScript(200, 8)
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncAlways, CheckpointBytes: 1})
	applyScript(t, e, muts)
	waitCompactIdle(t, e)
	st := e.WALStats()
	if st.Checkpoints == 0 {
		t.Fatalf("no checkpoint despite 1-byte trigger: %+v", st)
	}
	names, err := fs.ReadDir("idx")
	if err != nil {
		t.Fatal(err)
	}
	walFiles := 0
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".wal" {
			walFiles++
		}
	}
	// Every sealed-and-covered file is retired; only the live tail (and at
	// most one sealed file raced past the last checkpoint) remain.
	if walFiles > 2 {
		t.Fatalf("%d log files survive aggressive checkpointing: %v", walFiles, names)
	}
	e.Close()
	re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	answersMustMatch(t, "checkpointed", re, oracleFor(t, muts, len(muts)))
}

func TestWALSyncPoliciesAndPowerFailure(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := faultfs.NewMem()
			wc := WALConfig{Policy: policy, Interval: time.Hour} // the ticker never fires on its own
			e := newWALEngine(t, fs, "idx", wc)
			// Stay below the memtable seal threshold: a seal would rotate the
			// log, and rotation fsyncs — which would make rows durable and
			// spoil the power-failure half of the test.
			muts := walScript(10, 9)
			applyScript(t, e, muts)

			// Power failure without a flush: acknowledged-but-unsynced rows are
			// gone — the policy's documented trade-off. (A mere process crash
			// would keep them: CrashClone-style state retains written bytes.)
			lost, err := Open(WALConfig{Dir: "idx", FS: fs.PowerFailClone()}, RuntimeOptions{})
			if err != nil {
				t.Fatalf("recovery after power failure: %v", err)
			}
			if lost.Len() != 0 {
				t.Fatalf("unsynced rows survived power failure: Len = %d", lost.Len())
			}
			// A process crash (no power loss) keeps everything written.
			kept, err := Open(WALConfig{Dir: "idx", FS: fs.CrashClone(fs.Written())}, RuntimeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			answersMustMatch(t, "process-crash", kept, oracleFor(t, muts, len(muts)))

			// Sync is the drain path: after it, power failure loses nothing.
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			synced, err := Open(WALConfig{Dir: "idx", FS: fs.PowerFailClone()}, RuntimeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			answersMustMatch(t, "post-sync", synced, oracleFor(t, muts, len(muts)))
		})
	}
}

func TestWALFreshDirRefusesOverwrite(t *testing.T) {
	fs := faultfs.NewMem()
	e := newWALEngine(t, fs, "idx", WALConfig{Policy: SyncNever})
	e.Close()
	wc := WALConfig{Dir: "idx", FS: fs}
	if _, err := New(nil, Config{Roles: walRoles, WAL: &wc}); err == nil {
		t.Fatal("New over an existing WAL directory must refuse to clobber it")
	}
}

func TestWALOpenRequiresCheckpoint(t *testing.T) {
	fs := faultfs.NewMem()
	fs.MkdirAll("idx")
	if _, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{}); err == nil {
		t.Fatal("Open of a checkpoint-less directory must fail")
	}
}
