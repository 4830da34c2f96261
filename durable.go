package sdquery

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// Durable index directories. A WithWAL index lives in a directory of its
// own:
//
//	dir/MANIFEST        JSON: format version, index kind, shard count (1)
//	dir/shard-000/      the engine's WAL directory (CHECKPOINT + *.wal)
//
// The engine directory is a self-contained core WAL: a full-snapshot
// checkpoint plus the log tail of mutations since. The Open functions
// recover the index from the directory — the checkpoint loads, the tail
// replays idempotently, a torn tail truncates — so a crashed process
// restarts with exactly the acknowledged mutations (per the sync policy it
// ran with) and nothing else. The MANIFEST is written once at creation and
// never rewritten; it is the commit point of index creation, so Open on a
// directory whose creation crashed before the manifest landed fails cleanly
// instead of recovering half an index.
//
// The retired ShardedIndex kept one such engine directory per shard
// (shard-001, …) and said so in the MANIFEST. Its one-shard directories are
// this layout exactly and open as they are; a directory of several shards
// is refused by name (see OpenSDIndex).

const (
	manifestName   = "MANIFEST"
	manifestFormat = "sdquery-wal/v1"

	// manifestKindSDIndex is the one kind written; manifestKindSharded is
	// the retired ShardedIndex's, still recognised so that its directories
	// are refused for their shard count, not as garbage.
	manifestKindSDIndex = "sdindex"
	manifestKindSharded = "sharded"
)

type manifest struct {
	Format string `json:"format"`
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
}

// engineWALDir names the engine's WAL directory under the index root.
func engineWALDir(root string) string { return filepath.Join(root, "shard-000") }

// writeManifest creates the index directory and atomically installs its
// MANIFEST (faultfs.WriteFileAtomic). It refuses a directory that already
// holds one: durable indexes are recovered with Open, never re-created over.
func writeManifest(cfg *sdConfig) error {
	ffs := cfg.walFS
	if ffs == nil {
		ffs = faultfs.OS{}
	}
	if err := ffs.MkdirAll(cfg.walDir); err != nil {
		return fmt.Errorf("sdquery: wal dir: %w", err)
	}
	if _, err := ffs.Stat(filepath.Join(cfg.walDir, manifestName)); err == nil {
		return fmt.Errorf("sdquery: %s already holds a durable index; recover it with Open instead of creating over it", cfg.walDir)
	}
	data, err := json.Marshal(manifest{Format: manifestFormat, Kind: manifestKindSDIndex, Shards: 1})
	if err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(ffs, cfg.walDir, manifestName, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("sdquery: manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates dir's MANIFEST.
func readManifest(ffs faultfs.FS, dir string) (manifest, error) {
	f, err := ffs.OpenFile(filepath.Join(dir, manifestName), os.O_RDONLY, 0)
	if err != nil {
		return manifest{}, fmt.Errorf("sdquery: open %s: %w", dir, err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return manifest{}, fmt.Errorf("sdquery: open %s: manifest: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("sdquery: open %s: manifest: %w", dir, err)
	}
	if m.Format != manifestFormat {
		return manifest{}, fmt.Errorf("sdquery: open %s: unsupported manifest format %q (have %s)", dir, m.Format, manifestFormat)
	}
	if m.Shards < 1 || m.Shards > 1<<20 {
		return manifest{}, fmt.Errorf("sdquery: open %s: implausible shard count %d", dir, m.Shards)
	}
	switch m.Kind {
	case manifestKindSDIndex, manifestKindSharded:
	default:
		return manifest{}, fmt.Errorf("sdquery: open %s: unknown index kind %q", dir, m.Kind)
	}
	return m, nil
}

// OpenSDIndex recovers a durable index from its WithWAL directory:
// checkpoint load, idempotent log replay, torn-tail truncation. Structural
// options are in the checkpoint; the option list supplies runtime knobs
// (memtable size, compaction, workers, the segment
// count compaction steers towards) and the WAL knobs to run with from here
// on (WithSyncPolicy, WithSyncInterval, WithWALFS). WithWAL on the option
// list is ignored — dir is authoritative.
//
// A directory the retired ShardedIndex wrote with more than one shard is
// refused, whole: its rows are spread over several logs this engine has no
// way to replay as one history, and recovering one shard of it would serve
// a fraction of the acknowledged writes as if it were the index.
func OpenSDIndex(dir string, opts ...SDOption) (*SDIndex, error) {
	cfg := parseOptions(opts)
	cfg.walDir = dir
	if cfg.walFS == nil {
		cfg.walFS = faultfs.OS{}
	}
	m, err := readManifest(cfg.walFS, dir)
	if err == nil && m.Shards > 1 {
		err = fmt.Errorf("sdquery: open %s: directory holds a %d-shard index written before the index became one engine; it cannot be recovered by this version — rebuild it from its source data", dir, m.Shards)
	}
	if err != nil {
		return nil, err
	}
	eng, err := core.Open(cfg.walConfig(), cfg.rt)
	return cfg.wrap(eng, err)
}

// OpenShardedIndex is OpenSDIndex defaulting to WithShards(0) and
// WithWorkers(0).
func OpenShardedIndex(dir string, opts ...SDOption) (*ShardedIndex, error) {
	return OpenSDIndex(dir, shardedDefaults(opts)...)
}
