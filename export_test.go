package sdquery

import "repro/internal/core"

// Test-only construction hooks. The sweep-or-stream planner has no public
// option — it chooses from its own telemetry — but the suites must be able
// to hold one side still: the differential workloads are all small enough
// that the default planner sweeps every segment, which would leave the
// stream path untested.

// WithStreamOnly pins pure streaming: no segment is swept, every seal builds
// its index, and Stats are exactly the pre-planner trace.
func WithStreamOnly() SDOption { return WithAccessCost(core.StreamOnly) }

// WithAccessCost sets the planner's unit cost — one sorted access in swept
// rows — so tests can force up-front sweeps (a huge value), or mid-stream
// bail-outs on tiny data (a small one).
func WithAccessCost(rows int) SDOption {
	return func(c *sdConfig) { c.accessCost = rows }
}

// SweepOnly is an access cost under which every segment is swept up front.
const SweepOnly = 1 << 30
