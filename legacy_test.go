package sdquery

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// Inputs written by earlier versions: a file saved by the retired
// ShardedIndex or with the retired float32 sweep columns must still load, and
// a directory the ShardedIndex logged several shards into must be refused
// whole.

// lcgRows is the first n four-dimensional rows of the LCG stream both
// legacy files were built from.
func lcgRows(n int) [][]float64 {
	x := uint64(12345)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{next(), next(), next(), next()}
	}
	return rows
}

// legacyRows regenerates the dataset behind testdata/legacy/sharded-v1.sdqx,
// which the parent commit's ShardedIndex.Save wrote (3 shards, compaction
// off): 300 built rows and 20 inserted ones from one LCG stream, then every
// seventh ID and ID 319 removed — tombstones in sealed segments and in the
// memtables, and an ID space (320) that outlives its highest live row.
func legacyRows() (rows [][]float64, dead []bool) {
	rows = lcgRows(320)
	dead = make([]bool, len(rows))
	for id := 0; id < len(rows); id += 7 {
		dead[id] = true
	}
	dead[319] = true
	return rows, dead
}

// TestLoadWidth32File loads testdata/legacy/width32-v3.sdqx, which the last
// commit with float32 sweep columns saved from an index built over
// rows[:2000] with those columns and compaction off, after inserting
// rows[2000:] and removing every ninth ID. Its header says width 32 but its
// columns are float64 like every v3 file's, so it comes up as today's one
// format and answers exactly. Its layout byte is 1, the retired adaptive
// pair-tree grid: Load checks it and ignores it, Save writes the in-order
// zip as layout 0, and the re-saved file answers the same.
func TestLoadWidth32File(t *testing.T) {
	file, err := os.ReadFile("testdata/legacy/width32-v3.sdqx")
	if err != nil {
		t.Fatal(err)
	}
	rows := lcgRows(2040)
	dead := make([]bool, len(rows))
	for id := 0; id < len(rows); id += 9 {
		dead[id] = true
	}
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	idx, err := LoadSDIndex(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// The envelope (6 bytes), version, dims, 4 roles, pairing and width
	// precede the layout byte.
	const offLayout = 6 + 4 + 4 + 4 + 2
	if file[offLayout] != 1 {
		t.Fatalf("fixture layout byte %d, want 1 (the grid)", file[offLayout])
	}
	var resaved bytes.Buffer
	if err := idx.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if got := resaved.Bytes()[offLayout]; got != 0 {
		t.Fatalf("re-saved layout byte %d, want 0", got)
	}
	again, err := LoadSDIndex(bytes.NewReader(resaved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	rng := rand.New(rand.NewSource(37))
	for _, ix := range []*SDIndex{idx, again} {
		if got, want := ix.Len(), liveRows(dead); got != want {
			t.Fatalf("Len = %d, want the file's %d live rows", got, want)
		}
		for i := 0; i < 60; i++ {
			q := randomQuery(rng, roles, 40) // k ≤ 43: the sweep's prune has work to do
			q.Point = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			got, err := ix.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "width-32 file vs scan of its live rows", got, oracleTopK(rows, dead, q))
		}
	}
}

func TestLoadLegacyShardedFile(t *testing.T) {
	file, err := os.ReadFile("testdata/legacy/sharded-v1.sdqx")
	if err != nil {
		t.Fatal(err)
	}
	rows, dead := legacyRows()
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	for name, load := range map[string]func() (*SDIndex, error){
		"LoadSDIndex":      func() (*SDIndex, error) { return LoadSDIndex(bytes.NewReader(file)) },
		"LoadShardedIndex": func() (*SDIndex, error) { return LoadShardedIndex(bytes.NewReader(file), WithShards(3)) },
	} {
		t.Run(name, func(t *testing.T) {
			idx, err := load()
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if got, want := idx.Len(), liveRows(dead); got != want {
				t.Fatalf("Len = %d, want the file's %d live rows", got, want)
			}
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 40; i++ {
				q := randomQuery(rng, roles, len(rows))
				q.Point = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				got, err := idx.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, "folded legacy file vs scan of its live rows", got, oracleTopK(rows, dead, q))
			}
			// The fold keeps the old ID space: 319 was assigned and removed,
			// so it is gone for good and the next row is 320.
			if idx.Total() != len(rows) {
				t.Fatalf("Total = %d, want %d", idx.Total(), len(rows))
			}
			if idx.Remove(319) || idx.Remove(7) {
				t.Fatal("a row the legacy index had removed came back live")
			}
			id, err := idx.Insert([]float64{0.5, 0.5, 0.5, 0.5})
			if err != nil || id != len(rows) {
				t.Fatalf("Insert after load = %d, %v; want %d", id, err, len(rows))
			}
			// One way: what Save writes now is the single-engine kind.
			var out bytes.Buffer
			if err := idx.Save(&out); err != nil {
				t.Fatal(err)
			}
			if kind := out.Bytes()[5]; kind != kindSDIndex {
				t.Fatalf("re-saved file has kind %d, want %d", kind, kindSDIndex)
			}
		})
	}

	// Damage inside the shard header or a shard section fails the load.
	for _, cut := range []int{8, 20, len(file) / 2, len(file) - 1} {
		if _, err := LoadSDIndex(bytes.NewReader(file[:cut])); err == nil {
			t.Fatalf("legacy file truncated to %d of %d bytes accepted", cut, len(file))
		}
	}
}

// putManifest overwrites dir's MANIFEST on the in-memory filesystem.
func putManifest(t *testing.T, fs *faultfs.Mem, dir, body string) {
	t.Helper()
	f, err := fs.OpenFile(dir+"/MANIFEST", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRefusesMultiShardDirectory(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(30, len(durableRoles), 3)
	idx, err := NewShardedIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 20, 4)
	idx.Close()

	// What the retired ShardedIndex wrote for three shards. shard-000 is a
	// perfectly recoverable engine directory — which is the point: opening
	// it alone would serve a third of such an index as if it were all of it.
	putManifest(t, fs, "idx", `{"format":"sdquery-wal/v1","kind":"sharded","shards":3}`)
	before := fs.Ops()
	for name, open := range map[string]func(string, ...SDOption) (*SDIndex, error){
		"OpenSDIndex": OpenSDIndex, "OpenShardedIndex": OpenShardedIndex,
	} {
		_, err := open("idx", WithWALFS(fs))
		if err == nil {
			t.Fatalf("%s recovered a 3-shard directory", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "idx") || !strings.Contains(msg, "3-shard") {
			t.Fatalf("%s: error %q does not name the directory and the shard count", name, msg)
		}
	}
	if after := fs.Ops(); after != before {
		t.Fatalf("a refused open wrote to the directory (%d journaled operations)", after-before)
	}

	// Its one-shard directories are today's layout and open as they are.
	putManifest(t, fs, "idx", `{"format":"sdquery-wal/v1","kind":"sharded","shards":1}`)
	re, err := OpenShardedIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	durableCheck(t, "legacy one-shard directory", re, data, dead)
}
