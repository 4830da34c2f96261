package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Serving metrics: fixed-shape atomic counters — no locks, no maps on the
// request path — exported two ways: Prometheus text format on GET /metrics
// and a human-oriented JSON snapshot on GET /statz. Latency is recorded in
// a log-bucketed histogram (Prometheus histogram semantics); p50/p99 in
// /statz are bucket upper bounds, the same resolution a Prometheus
// histogram_quantile would report.

// endpoint enumerates the metered request families.
type endpoint int

const (
	epTopK endpoint = iota
	epBatch
	epInsert
	epRemove
	epSwap
	nEndpoints
)

func (e endpoint) String() string {
	switch e {
	case epTopK:
		return "topk"
	case epBatch:
		return "batch"
	case epInsert:
		return "insert"
	case epRemove:
		return "remove"
	case epSwap:
		return "swap"
	}
	return "unknown"
}

// nLatBuckets finite histogram buckets: 50µs doubling to ~1.6s, plus the
// implicit +Inf bucket. Sixteen buckets straddle everything from a warm
// in-memory query to a stalled swap.
const nLatBuckets = 16

var latBuckets = func() [nLatBuckets]float64 {
	var b [nLatBuckets]float64
	v := 50e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// histogram is a fixed-bucket latency histogram. counts[nLatBuckets] is the
// +Inf bucket.
type histogram struct {
	counts [nLatBuckets + 1]atomic.Uint64
	sumNs  atomic.Uint64
	n      atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latBuckets) && s > latBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
	h.n.Add(1)
}

// quantile returns the upper bound of the bucket holding the q-quantile
// observation (0 when empty). The +Inf bucket reports the largest finite
// bound — a floor, which is the honest direction for a tail estimate.
func (h *histogram) quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			if i < len(latBuckets) {
				return latBuckets[i]
			}
			return latBuckets[len(latBuckets)-1]
		}
	}
	return latBuckets[len(latBuckets)-1]
}

// metrics is the server's counter surface.
type metrics struct {
	start time.Time

	requests   [nEndpoints]atomic.Uint64 // all finished requests, any status
	errors     [nEndpoints]atomic.Uint64 // 4xx/5xx except rejections and disconnects
	rejected   [nEndpoints]atomic.Uint64 // 429 backpressure rejections
	clientGone [nEndpoints]atomic.Uint64 // 499 client disconnects (not errors)
	latency    [nEndpoints]histogram

	// Coalescing telemetry: executed batches and the queries they carried;
	// their ratio is the mean coalesced batch size.
	batches   atomic.Uint64
	coalesced atomic.Uint64

	swaps atomic.Uint64

	// Result-cache telemetry. Hits and misses are /v1/topk lookups against
	// the cache; rejects are computed answers not stored because the index
	// or its epoch moved while they ran (the post-execution check).
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheRejects atomic.Uint64

	// Engine work counters, accumulated from stats-enabled queries (the
	// TopKWithStats path); statQueries is their denominator.
	fetched     atomic.Uint64
	scored      atomic.Uint64
	swept       atomic.Uint64 // live rows of swept segments, scored or skipped with their block
	sweptSegs   atomic.Uint64 // sealed segments swept
	statQueries atomic.Uint64
}

func (m *metrics) observe(ep endpoint, d time.Duration, status int) {
	m.requests[ep].Add(1)
	m.latency[ep].observe(d)
	switch {
	case status == 429:
		m.rejected[ep].Add(1)
	case status == statusClientClosedRequest:
		// The client hung up; the server did nothing wrong. Counted apart
		// from errors so disconnect waves can't trip error-rate alerts.
		m.clientGone[ep].Add(1)
	case status >= 400:
		m.errors[ep].Add(1)
	}
}

func (m *metrics) observeBatch(n int) {
	m.batches.Add(1)
	m.coalesced.Add(uint64(n))
}

// meanBatch is the mean coalesced batch size so far (0 when no batch ran).
func (m *metrics) meanBatch() float64 {
	b := m.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(m.coalesced.Load()) / float64(b)
}

// cacheHitRate is hits / (hits + misses), 0 when the cache saw no lookups.
func (m *metrics) cacheHitRate() float64 {
	h, mi := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

// writeProm renders the Prometheus text exposition format. cache is nil
// when the result cache is disabled; its series are emitted either way so
// the exposition schema is stable across configurations.
func (m *metrics) writeProm(w io.Writer, idx Index, cache *resultCache) {
	fmt.Fprintf(w, "# HELP sdserver_uptime_seconds Time since the server started.\n# TYPE sdserver_uptime_seconds gauge\n")
	fmt.Fprintf(w, "sdserver_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP sdserver_requests_total Finished requests by endpoint.\n# TYPE sdserver_requests_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "sdserver_requests_total{endpoint=%q} %d\n", ep, m.requests[ep].Load())
	}
	fmt.Fprintf(w, "# HELP sdserver_errors_total Failed requests (4xx/5xx, rejections excluded) by endpoint.\n# TYPE sdserver_errors_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "sdserver_errors_total{endpoint=%q} %d\n", ep, m.errors[ep].Load())
	}
	fmt.Fprintf(w, "# HELP sdserver_rejected_total Backpressure rejections (429) by endpoint.\n# TYPE sdserver_rejected_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "sdserver_rejected_total{endpoint=%q} %d\n", ep, m.rejected[ep].Load())
	}
	fmt.Fprintf(w, "# HELP sdserver_client_disconnects_total Requests abandoned by the client (499) by endpoint.\n# TYPE sdserver_client_disconnects_total counter\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		fmt.Fprintf(w, "sdserver_client_disconnects_total{endpoint=%q} %d\n", ep, m.clientGone[ep].Load())
	}

	fmt.Fprintf(w, "# HELP sdserver_request_duration_seconds Request latency by endpoint.\n# TYPE sdserver_request_duration_seconds histogram\n")
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		h := &m.latency[ep]
		var cum uint64
		for i, ub := range latBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "sdserver_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, fmt.Sprintf("%g", ub), cum)
		}
		cum += h.counts[len(latBuckets)].Load()
		fmt.Fprintf(w, "sdserver_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "sdserver_request_duration_seconds_sum{endpoint=%q} %g\n", ep, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(w, "sdserver_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.n.Load())
	}

	fmt.Fprintf(w, "# HELP sdserver_coalesced_batches_total Executed coalesced batches.\n# TYPE sdserver_coalesced_batches_total counter\n")
	fmt.Fprintf(w, "sdserver_coalesced_batches_total %d\n", m.batches.Load())
	fmt.Fprintf(w, "# HELP sdserver_coalesced_queries_total Queries executed through coalesced batches.\n# TYPE sdserver_coalesced_queries_total counter\n")
	fmt.Fprintf(w, "sdserver_coalesced_queries_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "# HELP sdserver_index_swaps_total Completed zero-downtime index swaps.\n# TYPE sdserver_index_swaps_total counter\n")
	fmt.Fprintf(w, "sdserver_index_swaps_total %d\n", m.swaps.Load())

	fmt.Fprintf(w, "# HELP sdserver_cache_hits_total Result-cache hits on /v1/topk.\n# TYPE sdserver_cache_hits_total counter\n")
	fmt.Fprintf(w, "sdserver_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "# HELP sdserver_cache_misses_total Result-cache misses on /v1/topk.\n# TYPE sdserver_cache_misses_total counter\n")
	fmt.Fprintf(w, "sdserver_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "# HELP sdserver_cache_admission_rejects_total Computed answers not cached because the index or its epoch moved while they ran.\n# TYPE sdserver_cache_admission_rejects_total counter\n")
	fmt.Fprintf(w, "sdserver_cache_admission_rejects_total %d\n", m.cacheRejects.Load())
	fmt.Fprintf(w, "# HELP sdserver_cache_hit_rate Result-cache hit rate since start (hits / lookups).\n# TYPE sdserver_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "sdserver_cache_hit_rate %g\n", m.cacheHitRate())
	fmt.Fprintf(w, "# HELP sdserver_cache_entries Resident result-cache entries.\n# TYPE sdserver_cache_entries gauge\n")
	if cache != nil {
		fmt.Fprintf(w, "sdserver_cache_entries %d\n", cache.len())
	} else {
		fmt.Fprintf(w, "sdserver_cache_entries 0\n")
	}

	fmt.Fprintf(w, "# HELP sdserver_engine_fetched_total Sorted accesses spent by stats-enabled queries.\n# TYPE sdserver_engine_fetched_total counter\n")
	fmt.Fprintf(w, "sdserver_engine_fetched_total %d\n", m.fetched.Load())
	fmt.Fprintf(w, "# HELP sdserver_engine_scored_total Points scored by stats-enabled queries.\n# TYPE sdserver_engine_scored_total counter\n")
	fmt.Fprintf(w, "sdserver_engine_scored_total %d\n", m.scored.Load())
	fmt.Fprintf(w, "# HELP sdserver_engine_swept_rows_total Live rows of the sealed segments swept, scored or skipped with their block, stats-enabled queries.\n# TYPE sdserver_engine_swept_rows_total counter\n")
	fmt.Fprintf(w, "sdserver_engine_swept_rows_total %d\n", m.swept.Load())
	fmt.Fprintf(w, "# HELP sdserver_engine_swept_segments_total Sealed segments swept, stats-enabled queries.\n# TYPE sdserver_engine_swept_segments_total counter\n")
	fmt.Fprintf(w, "sdserver_engine_swept_segments_total %d\n", m.sweptSegs.Load())
	fmt.Fprintf(w, "# HELP sdserver_engine_stats_queries_total Queries that carried stats=true.\n# TYPE sdserver_engine_stats_queries_total counter\n")
	fmt.Fprintf(w, "sdserver_engine_stats_queries_total %d\n", m.statQueries.Load())

	// Index-shape gauges: live points, resident bytes, the segment stack
	// shape and the compaction counter.
	fmt.Fprintf(w, "# HELP sdserver_index_points Live points in the serving index.\n# TYPE sdserver_index_points gauge\n")
	fmt.Fprintf(w, "sdserver_index_points %d\n", idx.Len())
	fmt.Fprintf(w, "# HELP sdserver_index_bytes Estimated resident bytes of the serving index.\n# TYPE sdserver_index_bytes gauge\n")
	fmt.Fprintf(w, "sdserver_index_bytes %d\n", idx.Bytes())
	segs, mem := idx.Segments()
	fmt.Fprintf(w, "# HELP sdserver_index_segments Sealed segments across the serving index.\n# TYPE sdserver_index_segments gauge\n")
	fmt.Fprintf(w, "sdserver_index_segments %d\n", segs)
	fmt.Fprintf(w, "# HELP sdserver_index_memtable_rows Unsealed memtable rows across the serving index.\n# TYPE sdserver_index_memtable_rows gauge\n")
	fmt.Fprintf(w, "sdserver_index_memtable_rows %d\n", mem)
	fmt.Fprintf(w, "# HELP sdserver_index_compactions_total Compaction steps completed by the serving index.\n# TYPE sdserver_index_compactions_total counter\n")
	fmt.Fprintf(w, "sdserver_index_compactions_total %d\n", idx.Compactions())

	// Write-ahead-log telemetry, present when the serving index is durable.
	if st := idx.WALStats(); st.Enabled {
		fmt.Fprintf(w, "# HELP sdserver_wal_appends_total Records appended to the write-ahead log.\n# TYPE sdserver_wal_appends_total counter\n")
		fmt.Fprintf(w, "sdserver_wal_appends_total %d\n", st.Appends)
		fmt.Fprintf(w, "# HELP sdserver_wal_fsyncs_total Fsyncs issued by the write-ahead log (group commit makes this <= appends).\n# TYPE sdserver_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "sdserver_wal_fsyncs_total %d\n", st.Fsyncs)
		fmt.Fprintf(w, "# HELP sdserver_wal_bytes_total Record bytes appended to the write-ahead log.\n# TYPE sdserver_wal_bytes_total counter\n")
		fmt.Fprintf(w, "sdserver_wal_bytes_total %d\n", st.Bytes)
		fmt.Fprintf(w, "# HELP sdserver_wal_replay_records Log records replayed by the last recovery.\n# TYPE sdserver_wal_replay_records gauge\n")
		fmt.Fprintf(w, "sdserver_wal_replay_records %d\n", st.ReplayRecords)
		fmt.Fprintf(w, "# HELP sdserver_wal_last_lsn Log sequence number of the last applied mutation.\n# TYPE sdserver_wal_last_lsn gauge\n")
		fmt.Fprintf(w, "sdserver_wal_last_lsn %d\n", st.LSN)
		degraded := 0
		if st.Err != nil {
			degraded = 1
		}
		fmt.Fprintf(w, "# HELP sdserver_wal_degraded Whether the write-ahead log failed and the server is read-only (1 = degraded).\n# TYPE sdserver_wal_degraded gauge\n")
		fmt.Fprintf(w, "sdserver_wal_degraded %d\n", degraded)
	}
}

// writeReplProm appends the node-role and replication series to /metrics.
// It is a Server method (not a metrics method) because the data lives on
// the server: the follower state and the index's LSN.
func (s *Server) writeReplProm(w io.Writer) {
	role := "leader"
	if s.repl.Load() != nil {
		role = "follower"
	}
	fmt.Fprintf(w, "# HELP sdserver_role Node role (the labeled role has value 1).\n# TYPE sdserver_role gauge\n")
	fmt.Fprintf(w, "sdserver_role{role=%q} 1\n", role)
	fmt.Fprintf(w, "# HELP sdserver_repl_lsn Last-applied WAL LSN (one stream, labeled shard 0).\n# TYPE sdserver_repl_lsn gauge\n")
	fmt.Fprintf(w, "sdserver_repl_lsn{shard=\"0\"} %d\n", s.Index().LSN())
	fmt.Fprintf(w, "# HELP sdserver_generation Cluster generation (promotion fencing token).\n# TYPE sdserver_generation gauge\n")
	fmt.Fprintf(w, "sdserver_generation %d\n", s.gen.Load())
	f := s.repl.Load()
	if f == nil {
		return
	}
	fmt.Fprintf(w, "# HELP sdserver_repl_lag_records Leader records not yet applied locally.\n# TYPE sdserver_repl_lag_records gauge\n")
	fmt.Fprintf(w, "sdserver_repl_lag_records %d\n", f.lag.Load())
	fmt.Fprintf(w, "# HELP sdserver_repl_pulls_total Successful replication polls.\n# TYPE sdserver_repl_pulls_total counter\n")
	fmt.Fprintf(w, "sdserver_repl_pulls_total %d\n", f.pulls.Load())
	fmt.Fprintf(w, "# HELP sdserver_repl_pull_errors_total Failed replication polls.\n# TYPE sdserver_repl_pull_errors_total counter\n")
	fmt.Fprintf(w, "sdserver_repl_pull_errors_total %d\n", f.pullErrs.Load())
	fmt.Fprintf(w, "# HELP sdserver_repl_bootstraps_total Full re-bootstraps after the initial one.\n# TYPE sdserver_repl_bootstraps_total counter\n")
	fmt.Fprintf(w, "sdserver_repl_bootstraps_total %d\n", f.bootstraps.Load())
	if last := f.lastPull.Load(); last > 0 {
		fmt.Fprintf(w, "# HELP sdserver_repl_last_pull_age_seconds Seconds since the last successful poll.\n# TYPE sdserver_repl_last_pull_age_seconds gauge\n")
		fmt.Fprintf(w, "sdserver_repl_last_pull_age_seconds %g\n", time.Since(time.Unix(0, last)).Seconds())
	}
}

// EndpointStatz is one endpoint's row in the Statz snapshot.
type EndpointStatz struct {
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Rejected    uint64  `json:"rejected"`
	Disconnects uint64  `json:"client_disconnects"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`
}

// ReplStatz is the follower's replication block in Statz.
type ReplStatz struct {
	Leader           string `json:"leader"`
	LagRecords       uint64 `json:"lag_records"`
	LastPullUnixNano int64  `json:"last_pull_unix_nano"`
	Pulls            uint64 `json:"pulls"`
	PullErrors       uint64 `json:"pull_errors"`
	Bootstraps       uint64 `json:"bootstraps"`
}

// Statz is the JSON diagnostic snapshot served on GET /statz (and returned
// by Server.Statz for in-process consumers like the load harness).
type Statz struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	QPS           float64                  `json:"qps"`
	Endpoints     map[string]EndpointStatz `json:"endpoints"`

	// Role is "leader" or "follower"; Repl is present only on followers.
	// ReplLSNs is the last-applied LSN, as the one-element array the wire
	// format carries it in; IndexIDSpace is the size of the global ID space — every indexed
	// ID is below it, which is how a router seeds cluster-unique IDs.
	Role         string     `json:"role"`
	Generation   uint64     `json:"generation"`
	Repl         *ReplStatz `json:"repl,omitempty"`
	ReplLSNs     []uint64   `json:"repl_lsns,omitempty"`
	IndexIDSpace int        `json:"index_id_space"`

	CoalescedBatches   uint64  `json:"coalesced_batches"`
	CoalescedQueries   uint64  `json:"coalesced_queries"`
	CoalescedBatchMean float64 `json:"coalesced_batch_mean"`

	CacheEnabled bool    `json:"cache_enabled"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheRejects uint64  `json:"cache_admission_rejects"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	IndexPoints      int    `json:"index_points"`
	IndexBytes       int    `json:"index_bytes"`
	IndexSegments    int    `json:"index_segments,omitempty"`
	IndexMemRows     int    `json:"index_memtable_rows,omitempty"`
	IndexCompactions uint64 `json:"index_compactions,omitempty"`
	Swaps            uint64 `json:"swaps"`

	EngineFetched  uint64 `json:"engine_fetched"`
	EngineScored   uint64 `json:"engine_scored"`
	EngineSwept    uint64 `json:"engine_swept_rows"`
	EngineSweptSeg uint64 `json:"engine_swept_segments"`
	StatsQueries   uint64 `json:"stats_queries"`

	// Write-ahead-log state, zero-valued when the serving index is not
	// durable. WALDegraded true means the log failed stickily and the
	// server refuses writes (503) until the index is reopened.
	WALEnabled       bool   `json:"wal_enabled"`
	WALAppends       uint64 `json:"wal_appends,omitempty"`
	WALFsyncs        uint64 `json:"wal_fsyncs,omitempty"`
	WALBytes         uint64 `json:"wal_bytes,omitempty"`
	WALReplayRecords uint64 `json:"wal_replay_records,omitempty"`
	WALLastLSN       uint64 `json:"wal_last_lsn,omitempty"`
	WALDegraded      bool   `json:"wal_degraded"`
	WALError         string `json:"wal_error,omitempty"`
}

func (m *metrics) statz(idx Index, cache *resultCache) Statz {
	up := time.Since(m.start).Seconds()
	st := Statz{
		UptimeSeconds:      up,
		Endpoints:          make(map[string]EndpointStatz, nEndpoints),
		CoalescedBatches:   m.batches.Load(),
		CoalescedQueries:   m.coalesced.Load(),
		CoalescedBatchMean: m.meanBatch(),
		CacheEnabled:       cache != nil,
		CacheHits:          m.cacheHits.Load(),
		CacheMisses:        m.cacheMisses.Load(),
		CacheRejects:       m.cacheRejects.Load(),
		CacheHitRate:       m.cacheHitRate(),
		IndexPoints:        idx.Len(),
		IndexBytes:         idx.Bytes(),
		Swaps:              m.swaps.Load(),
		EngineFetched:      m.fetched.Load(),
		EngineScored:       m.scored.Load(),
		EngineSwept:        m.swept.Load(),
		EngineSweptSeg:     m.sweptSegs.Load(),
		StatsQueries:       m.statQueries.Load(),
	}
	var total uint64
	for ep := endpoint(0); ep < nEndpoints; ep++ {
		h := &m.latency[ep]
		n := h.n.Load()
		row := EndpointStatz{
			Requests:    m.requests[ep].Load(),
			Errors:      m.errors[ep].Load(),
			Rejected:    m.rejected[ep].Load(),
			Disconnects: m.clientGone[ep].Load(),
			P50Ms:       h.quantile(0.50) * 1e3,
			P99Ms:       h.quantile(0.99) * 1e3,
		}
		if n > 0 {
			row.MeanMs = float64(h.sumNs.Load()) / float64(n) / 1e6
		}
		st.Endpoints[ep.String()] = row
		total += row.Requests
	}
	if up > 0 {
		st.QPS = float64(total) / up
	}
	st.IndexSegments, st.IndexMemRows = idx.Segments()
	st.IndexCompactions = idx.Compactions()
	if cache != nil {
		st.CacheEntries = cache.len()
	}
	if wst := idx.WALStats(); wst.Enabled {
		st.WALEnabled = true
		st.WALAppends = wst.Appends
		st.WALFsyncs = wst.Fsyncs
		st.WALBytes = wst.Bytes
		st.WALReplayRecords = wst.ReplayRecords
		st.WALLastLSN = wst.LSN
		if wst.Err != nil {
			st.WALDegraded = true
			st.WALError = wst.Err.Error()
		}
	}
	return st
}
