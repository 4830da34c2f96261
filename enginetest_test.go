// Cross-engine differential tests: every public engine, and the SD-Index
// at several segment counts, queried alone and in batches, runs the
// internal/enginetest oracle workloads. This is the module's §6 validation
// strategy as a first-class harness — any engine change that perturbs an
// answer fails here with the workload and rank that diverged.
package sdquery_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	sdquery "repro"
	"repro/internal/enginetest"
)

func TestDifferentialScan(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name:          "scan",
		Deterministic: true,
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewScan(data)
		},
	})
}

// sdModes are the served configurations every SD-Index cell runs under, so
// each configuration is held to the oracle on all of them. Two keep
// historical names (they pinned the retired §5 streams): stream queries the
// index Load makes of the built one's Save, and bailout holds every row the
// update phase inserts in the memtable (compaction off), whose flat sweep
// seeds the collector before the first segment's blocks are bounded. The
// names are kept so every cell's subtests keep theirs.
var sdModes = []struct {
	name   string
	opts   []sdquery.SDOption
	reload bool
}{
	{"stream", nil, true},
	{"default", nil, false},
	{"bailout", []sdquery.SDOption{sdquery.WithCompaction(false)}, false},
}

// builder makes the SD-Index under test from a dataset and an option list.
type builder func(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error)

func newSDIndex(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
	return sdquery.NewSDIndex(data, roles, opts...)
}

// runSDIndex runs the oracle workloads against one SD-Index configuration
// under every mode.
func runSDIndex(t *testing.T, name string, opts ...sdquery.SDOption) {
	runBuilt(t, name, newSDIndex, opts...)
}

// runBuilt is runSDIndex over the indexes build makes.
func runBuilt(t *testing.T, name string, build builder, opts ...sdquery.SDOption) {
	for mode := range sdModes {
		runSDIndexMode(t, name, mode, build, opts...)
	}
}

// runSDIndexMode is runBuilt for one mode.
func runSDIndexMode(t *testing.T, name string, mode int, build builder, opts ...sdquery.SDOption) {
	m := sdModes[mode]
	all := append(append([]sdquery.SDOption(nil), opts...), m.opts...)
	if m.reload {
		build = reloaded(build)
	}
	t.Run(m.name, func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          name + "-" + m.name,
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return build(data, roles, all...)
			},
		})
	})
}

// reloaded is build followed by a Save → Load round trip under the same
// options; an index in a test wrapper is loaded back into the same wrapper.
func reloaded(build builder) builder {
	return func(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
		eng, err := build(data, roles, opts...)
		if err != nil {
			return nil, err
		}
		var idx *sdquery.SDIndex
		wrap := func(l *sdquery.SDIndex) sdquery.Engine { return l }
		switch e := eng.(type) {
		case *sdquery.SDIndex:
			idx = e
		case wideIndex:
			idx, wrap = e.SDIndex, func(l *sdquery.SDIndex) sdquery.Engine { return wideIndex{l} }
		case batchIndex:
			idx, wrap = e.SDIndex, func(l *sdquery.SDIndex) sdquery.Engine { return batchIndex{l} }
		}
		defer idx.Close()
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			return nil, err
		}
		loaded, err := sdquery.LoadSDIndex(&buf, opts...)
		if err != nil {
			return nil, err
		}
		return wrap(loaded), nil
	}
}

// loadWidth32 builds the index, saves it, marks the file's column width 32 —
// what an index with a float32 sweep copy wrote before the copy was retired
// — and loads it back with the same options. Such files carry float64
// columns like every other and come up as the one format.
func loadWidth32(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
	idx, err := sdquery.NewSDIndex(data, roles, opts...)
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		return nil, err
	}
	// The envelope (6 bytes), the format version and dimension count (4
	// each), one role byte per dimension and the pairing byte come first.
	file := buf.Bytes()
	at := 6 + 4 + 4 + len(roles) + 1
	if file[at] != 64 {
		return nil, fmt.Errorf("Save wrote column width %d, want 64", file[at])
	}
	file[at] = 32
	return sdquery.LoadSDIndex(bytes.NewReader(file), opts...)
}

// loadPairing builds the index, saves it, and rewrites the file's pairing
// byte to b and its layout to one the strategy that byte named could have
// stored, then loads it back with the same options: 1 keeps the in-order
// zip, 2 (by-correlation) zips the repulsive dimensions with the attractive
// ones reversed, 3 (by-variance) zips both lists reversed, so the longer
// one's first dimensions are left alone, and 4 (none) pairs nothing. Every
// such layout takes the same bytes as the in-order one. Load binds the
// stored layout whatever the byte, so these are the only indexes that run a
// bijection other than the in-order zip.
func loadPairing(b byte) builder {
	return func(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
		idx, err := sdquery.NewSDIndex(data, roles, opts...)
		if err != nil {
			return nil, err
		}
		defer idx.Close()
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			return nil, err
		}
		var rep, att []uint32
		for d, r := range roles {
			switch r {
			case sdquery.Repulsive:
				rep = append(rep, uint32(d))
			case sdquery.Attractive:
				att = append(att, uint32(d))
			}
		}
		np := min(len(rep), len(att))
		switch b {
		case 2:
			slices.Reverse(att)
		case 3:
			slices.Reverse(rep)
			slices.Reverse(att)
		case 4:
			np = 0
		}
		lay := binary.LittleEndian.AppendUint32(nil, uint32(np))
		for i := 0; i < np; i++ {
			lay = binary.LittleEndian.AppendUint32(lay, rep[i])
			lay = binary.LittleEndian.AppendUint32(lay, att[i])
		}
		lone := slices.Sorted(slices.Values(append(rep[np:], att[np:]...)))
		lay = binary.LittleEndian.AppendUint32(lay, uint32(len(lone)))
		for _, d := range lone {
			lay = binary.LittleEndian.AppendUint32(lay, d)
		}
		// The pairing byte follows the envelope, version, dimension count and
		// roles; the width byte, layout byte 0 and the layout come after it.
		file := buf.Bytes()
		at := 6 + 4 + 4 + len(roles)
		if file[at] != 1 || file[at+2] != 0 {
			return nil, fmt.Errorf("Save wrote pairing byte %d and layout byte %d, want 1 and 0", file[at], file[at+2])
		}
		file[at] = b
		copy(file[at+3:], lay)
		return sdquery.LoadSDIndex(bytes.NewReader(file), opts...)
	}
}

// widePad ignored dimensions are appended to every workload.
const widePad = 22

// wideIndex serves a workload through an SD-Index padded with widePad
// ignored, zero-valued dimensions, which add exactly 0 to every score: the
// plan must drop every one of them and the answers must not move.
type wideIndex struct{ *sdquery.SDIndex }

func padWide[T any](v []T) []T { return append(append([]T(nil), v...), make([]T, widePad)...) }

func newWideIndex(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
	wide := make([][]float64, len(data))
	for i, p := range data {
		wide[i] = padWide(p)
	}
	idx, err := sdquery.NewSDIndex(wide, padWide(roles), opts...) // the zero Role is Ignored
	if err != nil {
		return nil, err
	}
	return wideIndex{idx}, nil
}

func (w wideIndex) TopK(q sdquery.Query) ([]sdquery.Result, error) {
	q.Point, q.Roles, q.Weights = padWide(q.Point), padWide(q.Roles), padWide(q.Weights)
	return w.SDIndex.TopK(q)
}

func (w wideIndex) Insert(p []float64) (int, error) { return w.SDIndex.Insert(padWide(p)) }

// Snapshot hides the embedded index's: its views answer at the padded width.
func (w wideIndex) Snapshot() *sdquery.Snapshot { return nil }

func TestDifferentialSDIndex(t *testing.T) {
	runSDIndex(t, "sdindex")
}

// TestDifferentialSDIndexPairings runs the oracle workloads over indexes
// loaded from files under every pairing byte Load accepts from a saved
// engine, each with a layout of its kind (loadPairing): the in-order zip,
// two other bijections and the pair-free layout. Load checks the layout and
// ignores it, so none of them may move an answer.
func TestDifferentialSDIndexPairings(t *testing.T) {
	for i, name := range []string{"in-order", "by-correlation", "by-variance", "none"} {
		t.Run(name, func(t *testing.T) {
			runBuilt(t, "sdindex-"+name, loadPairing(byte(i+1)))
		})
	}
}

// TestDifferentialSDIndexScheduling runs the full oracle workloads against
// a pair-free legacy file split into three segments and against 22 padded
// Ignored dimensions. Both cells keep historical names: round-robin (the
// retired scheduler it ran) and no-plan-cache.
func TestDifferentialSDIndexScheduling(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		runBuilt(t, "sdindex-pair-free-segmented", loadPairing(4), sdquery.WithShards(3))
	})
	t.Run("no-plan-cache", func(t *testing.T) {
		runBuilt(t, "sdindex-wide", newWideIndex)
	})
}

// TestDifferentialSDIndexStorage runs the oracle workloads against the
// storage-layer knobs: a tiny memtable forces the update phase through many
// background seals and folds (multi-segment planning, tombstone masking,
// snapshot isolation across compaction), while disabled compaction forces
// every inserted row through the memtable scan path. The third cell keeps
// its historical name (it ran the retired round-robin scheduler): a tiny
// memtable over an index loaded from a by-correlation legacy file. Answers
// must stay byte-identical to the oracle in every regime.
func TestDifferentialSDIndexStorage(t *testing.T) {
	t.Run("tiny-memtable", func(t *testing.T) {
		runSDIndex(t, "sdindex-tiny-memtable", sdquery.WithMemtableSize(4))
	})
	t.Run("no-compaction", func(t *testing.T) {
		runSDIndex(t, "sdindex-no-compaction", sdquery.WithCompaction(false))
	})
	t.Run("tiny-memtable-roundrobin", func(t *testing.T) {
		runBuilt(t, "sdindex-tiny-memtable-relaid", loadPairing(2), sdquery.WithMemtableSize(4))
	})
}

// TestDifferentialSDIndexColumns runs the oracle workloads over indexes
// loaded from files that record the retired float32 column width: they must
// answer byte-identically to the oracle, including across the update phase's
// seals and folds.
func TestDifferentialSDIndexColumns(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		runBuilt(t, "sdindex-float32", loadWidth32)
	})
	t.Run("float32-tiny-memtable", func(t *testing.T) {
		runBuilt(t, "sdindex-float32-tiny-memtable", loadWidth32, sdquery.WithMemtableSize(4))
	})
}

// batchIndex answers every query through a 2-query BatchTopK, the shape the
// serving coalescer sends, so a WithWorkers index runs its fork-join under
// the oracle. Both copies of the query must come back identical.
type batchIndex struct{ *sdquery.SDIndex }

func (b batchIndex) TopK(q sdquery.Query) ([]sdquery.Result, error) {
	out, err := b.BatchTopK([]sdquery.Query{q, q})
	if err != nil {
		return nil, err
	}
	if !slices.Equal(out[0], out[1]) {
		return nil, fmt.Errorf("one batch, two answers to the same query:\n%v\n%v", out[0], out[1])
	}
	return out[0], nil
}

// viaBatch wraps the indexes build makes in batchIndex.
func viaBatch(build builder) builder {
	return func(data [][]float64, roles []sdquery.Role, opts ...sdquery.SDOption) (sdquery.Engine, error) {
		eng, err := build(data, roles, opts...)
		if err != nil {
			return nil, err
		}
		return batchIndex{eng.(*sdquery.SDIndex)}, nil
	}
}

// TestDifferentialSDIndexParallel runs the oracle workloads over the axes
// that decide how one engine spends its queries: how many segments the bulk
// build is split into (1, 2, 7), whether queries arrive one at a time on the
// caller's goroutine (sequential) or two per BatchTopK call forked over
// WithWorkers(0)'s GOMAXPROCS goroutines (workers), and whether the stack
// the update phase runs against holds still (default memtable: the built
// segments stay, tombstones and memtable rows pile up) or churns (a 4-row
// memtable: every few inserts seal, fold and re-split under the segment
// cap). Answers must stay byte-identical to the oracle in every cell. The
// mode rotates with the cell, so that each segment count, and each
// (workers, stack) pair, meets every mode without the grid tripling.
// The remaining tests pin the corners the grid does not reach: a
// five-segment stack loaded from a float32-width file, batched (every mode;
// the cell's name is historical, from the retired round-robin scheduler it
// also ran), and the NewShardedIndex spelling.
func TestDifferentialSDIndexParallel(t *testing.T) {
	cell := 0
	for _, segs := range []int{1, 2, 7} {
		for _, workers := range []struct {
			name  string
			build builder
			opts  []sdquery.SDOption
		}{{"sequential", newSDIndex, nil}, {"workers", viaBatch(newSDIndex), []sdquery.SDOption{sdquery.WithWorkers(0)}}} {
			for _, stack := range []struct {
				name string
				opts []sdquery.SDOption
			}{{"static", nil}, {"churn", []sdquery.SDOption{sdquery.WithMemtableSize(4)}}} {
				opts := append([]sdquery.SDOption{sdquery.WithShards(segs)}, workers.opts...)
				opts = append(opts, stack.opts...)
				mode := cell % len(sdModes)
				cell++
				t.Run(fmt.Sprintf("segments=%d/%s/%s", segs, workers.name, stack.name), func(t *testing.T) {
					runSDIndexMode(t, "sdindex-parallel", mode, workers.build, opts...)
				})
			}
		}
	}
	t.Run("round-robin-float32", func(t *testing.T) {
		runBuilt(t, "sdindex-parallel-float32", viaBatch(loadWidth32),
			sdquery.WithWorkers(2), sdquery.WithShards(5))
	})
	t.Run("sharded-constructor", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sharded",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewShardedIndex(data, roles)
			},
		})
	})
}

func TestDifferentialTA(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name:          "ta",
		Deterministic: true,
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewTA(data)
		},
	})
}

func TestDifferentialBRS(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "brs", // best-first heap order resolves ties arbitrarily
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewBRS(data, 0)
		},
	})
}

func TestDifferentialPE(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "pe", // NRA lower-bound ties resolve arbitrarily at the k-th rank
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewPE(data)
		},
	})
}
