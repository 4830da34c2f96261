package sdquery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Persistence: an SDIndex serializes to a versioned binary format and loads
// back bit-exactly — the reloaded index returns the same answers
// (ascending-ID tie-breaks included) and reports the same Bytes, because
// sealed segments round-trip their exact rows, global IDs, and tombstones,
// and their index structures rebuild deterministically. A persisted index
// therefore restarts without re-ingesting data or replaying updates:
// `cmd/sdquery -index file` serves queries straight from the file.
//
// The file's structural identity — roles, pairing layout, tree shape,
// segment stack — is authoritative; SDOptions passed to the Load functions
// configure runtime behavior only: the memtable threshold, compaction,
// workers, and the segment count compaction steers towards.

// fileMagic opens every persisted index; fileVersion versions the outer
// envelope (the core engine section carries its own version).
var fileMagic = [4]byte{'S', 'D', 'Q', 'X'}

const (
	fileVersion = 1

	// kindSDIndex is the one kind Save writes: a single engine section.
	// kindSharded is the retired ShardedIndex's — a shard header and one
	// engine section per shard — which loadEngine still reads, folding the
	// shards into one engine.
	kindSDIndex = 1
	kindSharded = 2
)

// Save serializes the index's current snapshot. Like every read path it is
// lock-free: concurrent queries, inserts, and compactions proceed
// unhindered, and the file captures exactly the rows live at the atomic
// snapshot acquisition.
func (s *SDIndex) Save(w io.Writer) error {
	if _, err := w.Write(append(fileMagic[:], fileVersion, kindSDIndex)); err != nil {
		return err
	}
	return s.eng.Save(w)
}

// LoadSDIndex reconstructs a saved index. See the package persistence notes
// for which options apply. A file written by the retired ShardedIndex loads
// too, one way: its shards' live rows are gathered in ascending ID order and
// built into one engine, and Save writes the single-engine kind from then on.
func LoadSDIndex(r io.Reader, opts ...SDOption) (*SDIndex, error) {
	cfg := parseOptions(opts)
	eng, err := loadEngine(bufio.NewReader(r), cfg.rt)
	return cfg.wrap(eng, err)
}

// LoadShardedIndex is LoadSDIndex defaulting to WithShards(0) and
// WithWorkers(0).
func LoadShardedIndex(r io.Reader, opts ...SDOption) (*ShardedIndex, error) {
	return LoadSDIndex(r, shardedDefaults(opts)...)
}

// loadEngine reads the envelope and the engine behind it.
func loadEngine(r io.Reader, opt core.RuntimeOptions) (*core.Engine, error) {
	var hdr [6]byte // magic, version, kind
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("sdquery: load: %w", err)
	}
	if [4]byte(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("sdquery: load: not an SD-Index file (magic %q)", hdr[:4])
	}
	if hdr[4] != fileVersion {
		return nil, fmt.Errorf("sdquery: load: unsupported file version %d (have %d)", hdr[4], fileVersion)
	}
	switch hdr[5] {
	case kindSDIndex:
		return core.Load(r, opt)
	case kindSharded:
		// Shard count, insert cursor, and a routing table of one int32 per
		// global ID, all of which the rows themselves make redundant.
		var shards, cursor uint32
		var rows uint64
		for _, v := range []any{&shards, &cursor, &rows} {
			if err := binary.Read(r, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("sdquery: load: %w", err)
			}
		}
		if shards == 0 || shards > 1<<20 || rows > 1<<31 {
			return nil, fmt.Errorf("sdquery: load: implausible shard header (%d shards, %d rows)", shards, rows)
		}
		if _, err := io.CopyN(io.Discard, r, 4*int64(rows)); err != nil {
			return nil, fmt.Errorf("sdquery: load: %w", err)
		}
		parts := make([]*core.Engine, shards)
		for si := range parts {
			var err error
			if parts[si], err = core.Load(r, core.RuntimeOptions{}); err != nil {
				return nil, fmt.Errorf("shard %d: %w", si, err)
			}
		}
		return core.Merge(parts, opt)
	}
	return nil, fmt.Errorf("sdquery: load: unknown index kind %d", hdr[5])
}
