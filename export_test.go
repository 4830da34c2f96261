package sdquery

import "repro/internal/core"

// Test-only construction hooks. The sweep-or-stream planner has no public
// option — it chooses from its own telemetry — but the suites must be able
// to hold one side still: the differential workloads are all small enough
// that the default planner sweeps every segment, which would leave the
// stream path untested. The paper's ablation knobs (pairing, tree shape,
// projection angles, scheduler) are hooks for the same reason: they never
// change an answer, the figures reach them through internal/bench and
// core.Config, and the differential suites here must cover every setting.

// WithStreamOnly pins pure streaming: no segment a query can stream is swept,
// every seal builds its index, and Stats are exactly the pre-planner trace.
func WithStreamOnly() SDOption { return WithAccessCost(core.StreamOnly) }

// WithAccessCost sets the planner's unit cost — one sorted access in swept
// rows — so tests can force up-front sweeps (a huge value), or mid-stream
// bail-outs on tiny data (a small one).
func WithAccessCost(rows int) SDOption {
	return func(c *sdConfig) { c.rt.AccessCost = rows }
}

// WithCompaction(false) turns background compaction off: the memtable grows
// without bound — queries stay exact, scanning it row by row — and segments
// are only ever folded by an explicit Compact call, so a test can hold rows
// in the memtable.
func WithCompaction(enabled bool) SDOption {
	return func(c *sdConfig) { c.rt.DisableCompaction = !enabled }
}

// SweepOnly is an access cost under which every segment is swept up front.
const SweepOnly = 1 << 30

// PairingStrategy selects how repulsive dimensions are mapped to attractive
// ones for the 2D subproblems (the bijection of Eqn. 10); see core.Pairing.
type PairingStrategy = core.Pairing

const (
	PairInOrder       = core.PairInOrder
	PairByCorrelation = core.PairByCorrelation
	PairByVariance    = core.PairByVariance
	PairNone          = core.PairNone
)

// SchedulerMode selects how the §5 aggregation orders its sorted accesses
// across subproblems; see core.Scheduler.
type SchedulerMode = core.Scheduler

const (
	SchedBoundDriven = core.SchedBoundDriven
	SchedRoundRobin  = core.SchedRoundRobin
)

// WithPairing selects the dimension-pairing strategy (default PairInOrder).
func WithPairing(p PairingStrategy) SDOption {
	return func(c *sdConfig) { c.pairing = p }
}

// WithBranching sets the fan-out b of the per-pair projection trees
// (default 8).
func WithBranching(b int) SDOption {
	return func(c *sdConfig) { c.tree.Branching = b }
}

// WithLeafCapacity sets the number of points per tree leaf (default 64, the
// widest leaf the engine's leaf cursor supports; 1 is the paper's in-memory
// layout of single-point leaves).
func WithLeafCapacity(cap int) SDOption {
	return func(c *sdConfig) { c.tree.LeafCap = cap }
}

// WithAngles sets the indexed projection angles in degrees. 0 and 90 are
// always added if absent. Default: {0, 23, 45, 67, 90} (§6.1).
func WithAngles(degrees ...float64) SDOption {
	return func(c *sdConfig) {
		c.useAngles = true
		c.angleDegrees = append([]float64(nil), degrees...)
	}
}

// WithScheduler selects the sorted-access scheduling mode of the §5
// aggregation (default SchedBoundDriven).
func WithScheduler(m SchedulerMode) SDOption {
	return func(c *sdConfig) { c.rt.Scheduler = m }
}
