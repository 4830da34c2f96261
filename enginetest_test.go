// Cross-engine differential tests: every public engine, and the SD-Index
// at several segment counts with and without a worker pool, runs the
// internal/enginetest oracle workloads. This is the module's §6 validation
// strategy as a first-class harness — any engine change that perturbs an
// answer fails here with the workload and rank that diverged.
package sdquery_test

import (
	"fmt"
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

// plannerModes are the three ways the sweep-or-stream planner can take a
// segment, each forced in turn so every SD-Index configuration is held to
// the oracle on all of them: the workloads are far too small for the default
// planner to ever stream (every segment is swept up front, most are sealed
// without an index), so pure streaming is pinned explicitly, and an access
// cost of 2 rows makes even these segments worth probing and then, on about
// two queries in three, retiring mid-stream — after the streams have already
// added points to the collector.
var plannerModes = []struct {
	name string
	opts []sdquery.SDOption
}{
	{"stream", []sdquery.SDOption{sdquery.WithStreamOnly()}},
	{"default", nil},
	{"bailout", []sdquery.SDOption{sdquery.WithAccessCost(2)}},
}

// runSDIndex runs the oracle workloads against one SD-Index configuration
// under every planner mode.
func runSDIndex(t *testing.T, name string, opts ...sdquery.SDOption) {
	for mode := range plannerModes {
		runSDIndexMode(t, name, mode, opts...)
	}
}

// runSDIndexMode is runSDIndex for one planner mode.
func runSDIndexMode(t *testing.T, name string, mode int, opts ...sdquery.SDOption) {
	m := plannerModes[mode]
	all := append(append([]sdquery.SDOption(nil), opts...), m.opts...)
	t.Run(m.name, func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          name + "-" + m.name,
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, all...)
			},
		})
	})
}

func TestDifferentialSDIndex(t *testing.T) {
	runSDIndex(t, "sdindex")
}

func TestDifferentialSDIndexPairings(t *testing.T) {
	for _, p := range []sdquery.PairingStrategy{
		sdquery.PairInOrder, sdquery.PairByCorrelation, sdquery.PairByVariance, sdquery.PairNone,
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			runSDIndex(t, "sdindex-"+p.String(), sdquery.WithPairing(p))
		})
	}
}

// TestDifferentialSDIndexScheduling runs the full oracle workloads against
// the scheduling/plan ablation knobs: the round-robin rotation and the
// uncached planner must answer byte-identically to the oracle, exactly like
// the bound-driven cached default (covered by TestDifferentialSDIndex).
func TestDifferentialSDIndexScheduling(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		runSDIndex(t, "sdindex-roundrobin", sdquery.WithScheduler(sdquery.SchedRoundRobin))
	})
	t.Run("no-plan-cache", func(t *testing.T) {
		runSDIndex(t, "sdindex-nocache", sdquery.WithPlanCache(false))
	})
}

// TestDifferentialSDIndexStorage runs the oracle workloads against the
// storage-layer knobs: a tiny memtable forces the update phase through many
// background seals and folds (multi-segment planning, tombstone masking,
// snapshot isolation across compaction), while disabled compaction forces
// every inserted row through the memtable scan path. Answers must stay
// byte-identical to the oracle in both regimes.
func TestDifferentialSDIndexStorage(t *testing.T) {
	t.Run("tiny-memtable", func(t *testing.T) {
		runSDIndex(t, "sdindex-tiny-memtable", sdquery.WithMemtableSize(4))
	})
	t.Run("no-compaction", func(t *testing.T) {
		runSDIndex(t, "sdindex-no-compaction", sdquery.WithCompaction(false))
	})
	t.Run("tiny-memtable-roundrobin", func(t *testing.T) {
		runSDIndex(t, "sdindex-tiny-memtable-roundrobin",
			sdquery.WithMemtableSize(4), sdquery.WithScheduler(sdquery.SchedRoundRobin))
	})
}

// TestDifferentialSDIndexColumns runs the oracle workloads over the narrow
// float32 scoring columns: the approximate sweep plus exact rescore must
// answer byte-identically to the float64 default, including across the
// update phase's seals and folds.
func TestDifferentialSDIndexColumns(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		runSDIndex(t, "sdindex-float32", sdquery.WithColumnWidth(32))
	})
	t.Run("float32-tiny-memtable", func(t *testing.T) {
		runSDIndex(t, "sdindex-float32-tiny-memtable",
			sdquery.WithColumnWidth(32), sdquery.WithMemtableSize(4))
	})
}

// TestDifferentialSDIndexParallel runs the oracle workloads over the axes
// that decide how one engine spends a query: how many segments the bulk
// build is split into (1, 2, 7), whether a worker pool fans a query's
// segments out (unset: sequential; WithWorkers(0): GOMAXPROCS workers), and
// whether the stack the update phase runs against holds still (default
// memtable: the built segments stay, tombstones and memtable rows pile up)
// or churns (a 4-row memtable: every few inserts seal, fold and re-split
// under the segment cap). Answers must stay byte-identical to the oracle in
// every cell however the segment tasks interleave — and whichever of them
// finish as sweeps, publishing to the shared floor block by block. The
// planner mode rotates with the cell, so that each segment count, and each
// (workers, stack) pair, meets all three modes without the grid tripling.
// The remaining tests pin the corners the grid does not reach: the
// round-robin scheduler over float32 columns (every mode), and the
// NewShardedIndex spelling.
func TestDifferentialSDIndexParallel(t *testing.T) {
	cell := 0
	for _, segs := range []int{1, 2, 7} {
		for _, workers := range []struct {
			name string
			opts []sdquery.SDOption
		}{{"sequential", nil}, {"workers", []sdquery.SDOption{sdquery.WithWorkers(0)}}} {
			for _, stack := range []struct {
				name string
				opts []sdquery.SDOption
			}{{"static", nil}, {"churn", []sdquery.SDOption{sdquery.WithMemtableSize(4)}}} {
				opts := append([]sdquery.SDOption{sdquery.WithShards(segs)}, workers.opts...)
				opts = append(opts, stack.opts...)
				mode := cell % len(plannerModes)
				cell++
				t.Run(fmt.Sprintf("segments=%d/%s/%s", segs, workers.name, stack.name), func(t *testing.T) {
					runSDIndexMode(t, "sdindex-parallel", mode, opts...)
				})
			}
		}
	}
	t.Run("round-robin-float32", func(t *testing.T) {
		runSDIndex(t, "sdindex-parallel-roundrobin-float32",
			sdquery.WithWorkers(2), sdquery.WithShards(5),
			sdquery.WithScheduler(sdquery.SchedRoundRobin),
			sdquery.WithColumnWidth(32))
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
