package sdquery

import "repro/internal/core"

// Test-only construction hooks. The sweep-or-stream planner has no public
// option — it chooses from its own telemetry — but the suites must be able
// to hold one side still: the differential workloads are all small enough
// that the default planner sweeps every segment, which would leave the
// stream path untested. The compaction switch is a hook for the same kind of
// reason: a test can hold rows in the memtable.

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
