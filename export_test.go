package sdquery

// WithCompaction(false) turns background compaction off: the memtable grows
// without bound — queries stay exact, scanning it row by row — and segments
// are only ever folded by an explicit Compact call, so a test can hold rows
// in the memtable.
func WithCompaction(enabled bool) SDOption {
	return func(c *sdConfig) { c.rt.DisableCompaction = !enabled }
}
