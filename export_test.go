package sdquery

// Test-only construction hooks. Every public index answers every sealed
// segment with a zone sweep and builds no pair trees, so the suites need a
// way to reach the §5 streams: the differential workloads keep the stream
// path under the oracle through WithStreamOnly. The compaction switch is a
// hook for a similar reason: a test can hold rows in the memtable.

// WithStreamOnly pins pure streaming: every seal builds its trees and lists,
// every segment a query can stream is streamed, and Stats are exactly the
// §5 aggregation's trace.
func WithStreamOnly() SDOption {
	return func(c *sdConfig) { c.rt.StreamOnly = true }
}

// WithCompaction(false) turns background compaction off: the memtable grows
// without bound — queries stay exact, scanning it row by row — and segments
// are only ever folded by an explicit Compact call, so a test can hold rows
// in the memtable.
func WithCompaction(enabled bool) SDOption {
	return func(c *sdConfig) { c.rt.DisableCompaction = !enabled }
}
