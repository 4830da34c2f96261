package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"
)

// fuzzValidLog builds a well-formed log image (file header + 3 insert
// records, LSNs 1..3) — the base the seed corpus mutates.
func fuzzValidLog() []byte {
	rows := [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.6, 0.7, 0.8},
		{0.9, 0.1, 0.2, 0.3},
	}
	var recs []byte
	for i, r := range rows {
		recs = writeRecord(recs, uint64(i+1), insertPayload(i, r))
	}
	return append(append([]byte(nil), walMagic[:]...), recs...)
}

// refParseApplied is an independent reference parser: the number of
// LSN-advancing records a structurally maximal replay of raw could apply.
// It is deliberately at least as permissive as the engine's replay (it
// skips the semantic payload checks), so it upper-bounds ReplayRecords:
// replaying MORE than this means replay ran past the first structural
// corruption.
func refParseApplied(raw []byte) uint64 {
	if len(raw) < walHeaderLen || !bytes.Equal(raw[:walHeaderLen], walMagic[:]) {
		return 0
	}
	off := walHeaderLen
	var applied uint64
	for {
		if off+recHeaderLen > len(raw) {
			return applied
		}
		plen := binary.LittleEndian.Uint32(raw[off+4:])
		lsn := binary.LittleEndian.Uint64(raw[off+8:])
		if plen > maxWALRecord || off+recHeaderLen+int(plen) > len(raw) {
			return applied
		}
		crc := crc32.Checksum(raw[off+4:off+recHeaderLen], castagnoli)
		crc = crc32.Update(crc, castagnoli, raw[off+recHeaderLen:off+recHeaderLen+int(plen)])
		if crc != binary.LittleEndian.Uint32(raw[off:]) {
			return applied
		}
		switch {
		case lsn <= applied:
			// Duplicate: replay skips it and keeps going.
		case lsn == applied+1:
			applied = lsn
		default:
			// Gap: replay stops.
			return applied
		}
		off += recHeaderLen + int(plen)
	}
}

// FuzzWALReplay feeds arbitrary bytes as the entire live log file of an
// otherwise-valid WAL directory. Whatever the bytes, recovery must never
// panic and never error (a corrupt tail is the normal shape of a crashed
// log) — unless it meets a sound insert outside the value domain, which it
// must refuse with ErrWAL, keeping the file whole, as the stream apply must
// too —, must never apply records past the first structural corruption, and
// must be idempotent — recovering its own repaired output reproduces the
// same state. The same bytes as a replication stream, applied to an engine
// loaded from the same checkpoint, must reach the same LSN and Len, and may
// be accepted without error only if recovery kept the file whole.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzValidLog()
	f.Add(append([]byte(nil), valid...))
	// Torn tail: the last record loses its final 5 bytes.
	f.Add(append([]byte(nil), valid[:len(valid)-5]...))
	// Bit flip in the middle of a payload.
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	// Truncated-length attack: a header promising more payload than exists.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[walHeaderLen+4:], 1<<23)
	f.Add(huge)
	// Header-only and empty files.
	f.Add(append([]byte(nil), walMagic[:]...))
	f.Add([]byte{})
	// A sound record an older build accepted: a coordinate past the domain.
	f.Add(writeRecord(append([]byte(nil), valid...), 4, insertPayload(3, []float64{0.1, 1e200, 0.1, 0.1})))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fs := seedWALDir(t)
		fh, err := fs.OpenFile("idx/000000001.wal", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(raw)
		fh.Close()
		ckpt, err := fs.OpenFile("idx/"+ckptName, os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := Load(bufio.NewReader(ckpt), RuntimeOptions{DisableCompaction: true})
		ckpt.Close()
		if err != nil {
			t.Fatal(err)
		}

		re, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{DisableCompaction: true})
		if errors.Is(err, ErrWAL) {
			if size, _ := fs.Stat("idx/000000001.wal"); size != int64(len(raw)) {
				t.Fatalf("refused recovery cut the file from %d to %d bytes", len(raw), size)
			}
			if _, _, aerr := follower.ApplyWALStream(bytes.NewReader(raw)); !errors.Is(aerr, ErrWAL) {
				t.Fatalf("recovery refused the log (%v), stream apply returned %v", err, aerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery must never error on log corruption: %v", err)
		}
		maxApply := refParseApplied(raw)
		st := re.WALStats()
		if st.ReplayRecords > maxApply {
			t.Fatalf("replayed %d records, but only %d precede the first corruption", st.ReplayRecords, maxApply)
		}
		if st.LSN > maxApply {
			t.Fatalf("recovered LSN %d past the first corruption (max %d)", st.LSN, maxApply)
		}
		n := re.Len()
		re.Close()

		lsn, _, aerr := follower.ApplyWALStream(bytes.NewReader(raw))
		if lsn != st.LSN || follower.Len() != n {
			t.Fatalf("stream apply reached LSN %d, Len %d; recovery LSN %d, Len %d", lsn, follower.Len(), st.LSN, n)
		}
		if size, _ := fs.Stat("idx/000000001.wal"); aerr == nil && size != int64(len(raw)) {
			t.Fatalf("stream applied cleanly, but recovery cut the file from %d to %d bytes", len(raw), size)
		}

		// Idempotence: recovery truncated the corruption away; a second
		// recovery sees a clean log and lands on the same state.
		re2, err := Open(WALConfig{Dir: "idx", FS: fs}, RuntimeOptions{DisableCompaction: true})
		if err != nil {
			t.Fatalf("second recovery errored: %v", err)
		}
		if st2 := re2.WALStats(); st2.LSN != st.LSN || re2.Len() != n {
			t.Fatalf("recovery not idempotent: LSN %d→%d, Len %d→%d", st.LSN, st2.LSN, n, re2.Len())
		}
		re2.Close()
	})
}
