package sdquery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Persistence: SDIndex and ShardedIndex serialize to a versioned binary
// format and load back bit-exactly — the reloaded index returns the same
// answers (ascending-ID tie-breaks included) and reports the same Bytes,
// because sealed segments round-trip their exact rows, global IDs, and
// tombstones, and their index structures rebuild deterministically. A
// persisted index therefore restarts without re-ingesting data or replaying
// updates: `cmd/sdquery -index file` serves queries straight from the file.
//
// The file's structural identity — roles, pairing layout, tree shape,
// shard partition — is authoritative; SDOptions passed to the Load
// functions configure runtime behavior only (scheduler, plan cache,
// memtable threshold, compaction, workers). Structural options (pairing,
// branching, angles, shard count) are ignored on load.

// fileMagic opens every persisted index; fileVersion versions the outer
// envelope (the core engine section carries its own version).
var fileMagic = [4]byte{'S', 'D', 'Q', 'X'}

const (
	fileVersion = 1

	kindSDIndex = 1
	kindSharded = 2
)

func writeHeader(w io.Writer, kind uint8) error {
	if _, err := w.Write(fileMagic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, [2]uint8{fileVersion, kind})
}

func readHeader(r io.Reader) (kind uint8, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("sdquery: load: %w", err)
	}
	if magic != fileMagic {
		return 0, fmt.Errorf("sdquery: load: not an SD-Index file (magic %q)", magic[:])
	}
	var vk [2]uint8
	if err := binary.Read(r, binary.LittleEndian, &vk); err != nil {
		return 0, fmt.Errorf("sdquery: load: %w", err)
	}
	if vk[0] != fileVersion {
		return 0, fmt.Errorf("sdquery: load: unsupported file version %d (have %d)", vk[0], fileVersion)
	}
	return vk[1], nil
}

// runtimeOptions projects an option list onto the knobs Load honors.
func runtimeOptions(opts []SDOption) (core.RuntimeOptions, sdConfig) {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	return core.RuntimeOptions{
		Scheduler:         cfg.sched,
		DisablePlanCache:  cfg.noPlanCache,
		MemtableSize:      cfg.memSize,
		DisableCompaction: cfg.noCompact,
		MaxSegmentRows:    cfg.maxSegRows,
		AccessCost:        cfg.accessCost,
	}, cfg
}

// Save serializes the index's current snapshot. Like every read path it is
// lock-free: concurrent queries, inserts, and compactions proceed
// unhindered, and the file captures exactly the rows live at the atomic
// snapshot acquisition.
func (s *SDIndex) Save(w io.Writer) error {
	if err := writeHeader(w, kindSDIndex); err != nil {
		return err
	}
	return s.eng.Save(w)
}

// LoadSDIndex reconstructs a saved SDIndex. See the package persistence
// notes for which options apply.
func LoadSDIndex(r io.Reader, opts ...SDOption) (*SDIndex, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != kindSDIndex {
		return nil, fmt.Errorf("sdquery: load: file holds a sharded index; use LoadShardedIndex or Load")
	}
	return loadSDIndexBody(br, opts)
}

func loadSDIndexBody(r io.Reader, opts []SDOption) (*SDIndex, error) {
	opt, cfg := runtimeOptions(opts)
	var pool *workerPool
	if cfg.workersSet {
		pool = newWorkerPool(cfg.workers)
		opt.Pool = poolRunner{pool}
	}
	eng, err := core.Load(r, opt)
	if err != nil {
		if pool != nil {
			pool.close()
		}
		return nil, err
	}
	return &SDIndex{eng: eng, roles: eng.Roles(), pool: pool}, nil
}

// Save serializes the sharded index: the shard partition, the routing
// table, and every shard engine's snapshot. It briefly holds the routing
// lock so the cross-shard cut is consistent; queries keep flowing.
func (s *ShardedIndex) Save(w io.Writer) error {
	if err := writeHeader(w, kindSharded); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hdr := []any{uint32(len(s.shards)), uint32(s.next), uint64(len(s.byGlobal))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, s.byGlobal); err != nil {
		return err
	}
	for si, sh := range s.shards {
		if err := sh.eng.Save(w); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// LoadShardedIndex reconstructs a saved ShardedIndex. The shard partition
// comes from the file (WithShards is ignored); WithWorkers and the runtime
// engine knobs apply.
func LoadShardedIndex(r io.Reader, opts ...SDOption) (*ShardedIndex, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if kind != kindSharded {
		return nil, fmt.Errorf("sdquery: load: file holds a single-engine index; use LoadSDIndex or Load")
	}
	return loadShardedBody(br, opts)
}

func loadShardedBody(r io.Reader, opts []SDOption) (*ShardedIndex, error) {
	opt, cfg := runtimeOptions(opts)
	var shards, next uint32
	var rows uint64
	for _, v := range []any{&shards, &next, &rows} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("sdquery: load: %w", err)
		}
	}
	if shards == 0 || shards > 1<<20 || next >= shards || rows > 1<<31 {
		return nil, fmt.Errorf("sdquery: load: implausible shard header (%d shards, cursor %d, %d rows)", shards, next, rows)
	}
	s := &ShardedIndex{
		byGlobal: make([]int32, rows),
		next:     int(next),
		shards:   make([]*shard, shards),
	}
	if err := binary.Read(r, binary.LittleEndian, s.byGlobal); err != nil {
		return nil, fmt.Errorf("sdquery: load: %w", err)
	}
	for _, si := range s.byGlobal {
		if si < 0 || si >= int32(shards) {
			return nil, fmt.Errorf("sdquery: load: routing table names shard %d of %d", si, shards)
		}
	}
	for si := range s.shards {
		eng, err := core.Load(r, opt)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		s.shards[si] = &shard{eng: eng}
	}
	s.roles = s.shards[0].eng.Roles()
	s.pool = newWorkerPool(cfg.workers)
	return s, nil
}

// Load reconstructs whichever index kind the stream holds, dispatching on
// the file header — the convenient form for tools that serve any persisted
// index (cmd/sdquery -index).
func Load(r io.Reader, opts ...SDOption) (Engine, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindSDIndex:
		return loadSDIndexBody(br, opts)
	case kindSharded:
		return loadShardedBody(br, opts)
	}
	return nil, fmt.Errorf("sdquery: load: unknown index kind %d", kind)
}
