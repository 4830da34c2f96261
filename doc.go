// Package sdquery answers top-k queries over a mixture of attractive and
// repulsive dimensions — a Go implementation of Ranu & Singh, "Answering
// Top-k Queries Over a Mixture of Attractive and Repulsive Dimensions",
// PVLDB 5(3), 2011.
//
// An SD-Query compares every database point p to a user-supplied query
// object q under the non-monotonic scoring function
//
//	SD-score(p, q) = Σ_{i∈D} α_i·|p_i − q_i|  −  Σ_{j∈S} β_j·|p_j − q_j|
//
// where D holds the repulsive dimensions (distance is rewarded: "different
// habitat", "lower price") and S the attractive ones (closeness is rewarded:
// "same phylogeny", "similar hit rate"). Classic top-k machinery assumes
// monotonic scoring and cannot index this function; this package provides
// the paper's isoline-projection indexes:
//
//   - SDIndex — the general engine (§4 + §5): per-pair 2D projection trees
//     with multi-angle bounds, 1D bidirectional lists for unpaired
//     dimensions, and Threshold-Algorithm aggregation. k and all weights are
//     chosen at query time.
//   - Top1Index — the specialized 2D structure (§3) for workloads where k
//     and the weights are fixed up front: O(log n) queries over precomputed
//     envelope regions.
//
// # Segments and workers
//
// There is one engine, and every query runs on its caller's goroutine over
// the whole segment stack. Parallelism is across queries and at seal time,
// and it is two options. WithShards(n) splits the index into n segments: a
// bulk build seals n equal contiguous-ID segments concurrently, and
// compaction keeps the stack about that wide. WithWorkers(n) makes one
// BatchTopK call fork its queries over n goroutines, one task per query —
// byte-identical to a TopK loop, because the SD-score of a point depends on
// that point alone. NewSDIndex with neither is one segment and batches run
// on the caller; NewShardedIndex (and LoadShardedIndex, OpenShardedIndex,
// NewFollowerIndex — what cmd/sdserver uses) is the same index defaulting
// both to GOMAXPROCS. ShardedIndex is an alias of SDIndex: it was once a
// second engine of P independent ones behind a routing table, and files and
// one-shard directories it wrote still load.
//
// # Storage: segments, snapshots, compaction
//
// Every engine is an epoch-versioned stack of immutable sealed segments —
// dimension-major columns, global IDs, and the per-pair index structures,
// built once and never mutated — plus a small mutable memtable absorbing
// recent Inserts in a column block of the same layout. The engine's state
// is a single atomic pointer to an immutable snapshot, so the query path
// holds no lock at all: TopK/TopKAppend load the snapshot once and plan
// across every sealed segment (tombstones mask removed rows at emission;
// the memtable's rows are scored exactly up front). Insert writes the row
// into the next free slot of each memtable column in O(d) with no index
// maintenance, Remove flips a copy-on-write tombstone bit, and neither
// ever blocks a reader. A background compactor — kicked past
// WithMemtableSize rows — seals the memtable into a segment, keeps the
// stack logarithmic (each segment at least twice its successor), and
// rewrites dead-heavy segments; Compact forces a synchronous full fold.
// SDIndex.Snapshot pins a point-in-time view — one atomic load is already a
// consistent cut — that keeps answering byte-identically to the scan oracle
// at its acquisition instant while churn proceeds underneath.
//
// # Persistence
//
// Save serializes an index's snapshot to a versioned binary format — the
// structural configuration plus every segment's rows, IDs, and tombstones;
// index structures rebuild deterministically at load, so LoadSDIndex (or
// LoadShardedIndex, for the GOMAXPROCS defaults) reconstructs an index that
// answers byte-identically and reports the same Bytes, with no data
// re-ingestion:
//
//	f, _ := os.Create("points.sdx")
//	err := idx.Save(f) // lock-free, snapshot-consistent
//	f.Close()
//	...
//	f, _ = os.Open("points.sdx")
//	idx2, err := sdquery.LoadSDIndex(f) // serves immediately; updates resume
//
// cmd/sdquery exposes the same flow: -save persists an index built from
// CSV, -index serves a persisted one without any rebuild.
//
// # Durability
//
// Save captures a moment; WithWAL makes every mutation crash-safe. An index
// built with WithWAL(dir) appends each Insert/Remove as a checksummed,
// LSN-sequenced record to its write-ahead log before publishing it, and
// OpenSDIndex(dir) (or OpenShardedIndex) reconstructs the index after a
// crash — checkpoint first, then the live log tail:
//
//	idx, err := sdquery.NewShardedIndex(data, roles, sdquery.WithWAL("/var/lib/sd"))
//	id, err := idx.Insert(row) // returns only after the record is committed
//	...                        // power fails here
//	idx2, err := sdquery.OpenShardedIndex("/var/lib/sd") // every acknowledged write intact
//
// WithSyncPolicy picks the durability/throughput point. SyncAlways (the
// default) acknowledges a mutation only after an fsync covers it; a
// group-commit batcher shares each fsync across every mutation that arrived
// in the commit window, so concurrent writers pay far less than one fsync
// each. SyncInterval fsyncs on a timer (WithSyncInterval, bounding loss to
// one interval), SyncNever only on rotation, checkpoint, and Close.
//
// Recovery is deliberately forgiving of the shapes crashes actually leave:
// a torn tail (half-written final record) is truncated at the first bad
// checksum, duplicated records replay idempotently by LSN, and a crash
// mid-checkpoint or mid-rotation falls back to the previous consistent
// state. It refuses to guess only when the directory itself is damaged
// (missing MANIFEST, corrupt checkpoint) — or was written by the retired
// multi-engine ShardedIndex with more than one shard, which is refused by
// name rather than recovered in part. The internal/faultfs harness
// proves the contract differentially: the crash suite kills a
// fault-injecting filesystem at every operation boundary and byte watermark
// and requires the reopened index to answer byte-identically to an oracle
// holding exactly the acknowledged prefix; FuzzWALReplay feeds arbitrary
// bytes as the log and requires recovery to never panic, never error, and
// never replay past the first corruption.
//
// When a log write or fsync fails persistently, the index degrades rather
// than lies: the failed mutation (and every later one) returns an error
// wrapping ErrWAL, reads keep serving, and WALStats reports the sticky
// error. The serving layer (below) maps this to read-only mode — writes
// answer 503, /healthz and /metrics advertise the degraded state.
//
// # Serving
//
// Package repro/serve and cmd/sdserver put the engine behind an HTTP/JSON
// API (POST /v1/topk, /v1/batch, /v1/insert, DELETE /v1/points/{id}, plus
// /healthz, /metrics in Prometheus text format, and /statz). The serving
// layer coalesces concurrently-arriving single queries into BatchTopK
// calls (bounded window and batch size, riding the pooled batch path
// above), answers 429 with Retry-After when its bounded admission queue
// fills, and enforces per-request deadlines through TopKContext /
// TopKAppendContext: the aggregation loop polls the context's Done channel
// once per scheduling step, so a cancelled or timed-out query stops within
// one adaptive batch and releases every pooled buffer. POST /v1/admin/swap
// loads a persisted index and publishes it with one atomic pointer store —
// in-flight queries finish on the index they grabbed, so no request ever
// observes a torn index — and SIGTERM drains gracefully (healthz flips to
// 503, in-flight requests finish, then the process exits). A hot-query
// result cache (serve.WithResultCache) sits between admission and the
// engine: entries are keyed on canonical query bytes and versioned by the
// snapshot epoch every publish bumps, so swap/compaction invalidation is
// free and hits stay byte-identical to the live engine; new answers wait
// in a small probation queue and only those hit there join the main
// queue, so one-off queries cannot evict the traffic's hot head, and the
// hit path allocates nothing. /statz and /metrics expose the hit rate.
// The JSON wire format is documented in serve/wire.go, next to this binary
// format.
//
// Scan, SDIndex, and TA break score ties by ascending dataset ID, so their
// answers are byte-identical to each other; BRS and PE resolve
// exact ties at the k-th rank arbitrarily but return the same score
// sequence. The internal/enginetest differential harness (and a native fuzz
// target) enforces both contracts against an exhaustive-scan oracle.
//
// The baselines the paper evaluates against are included, sharing the same
// Query/Result API, so applications can benchmark on their own data:
// sequential scan, the adapted Threshold Algorithm (TA), branch-and-bound
// ranked search over an R*-tree (BRS), and progressive exploration (PE).
//
// # Cluster
//
// Past one machine (or one failure domain), sdserver nodes form leader
// groups: an index replicates as one stream at one position (SDIndex.LSN),
// so a WAL-backed leader streams its snapshot and live WAL tail over
// /v1/repl/{manifest,segment,wal}, and followers (sdserver -follow, or
// serve.NewFollower) bootstrap from the snapshot, apply WAL records
// idempotently by LSN, serve reads from their own copy, and refuse writes
// with a 503 + Retry-After + X-SD-Leader hint. A checkpoint that retires
// log files a lagging follower still needs — or a leader restart into a
// new history, detected by its source token — triggers a clean
// re-bootstrap, never a silent fork.
//
// cmd/sdrouter (package serve/router) is the cluster front door: the ID
// space folds onto partitions by rendezvous hashing over stable partition
// names, reads scatter to every partition and merge exactly (the SD-score
// of a point depends on no other point, so the router's answers are
// byte-identical to a single node over all rows), and writes route to the
// owning leader under router-assigned cluster-unique IDs, which make
// ambiguous-write retries provably idempotent (duplicate 200 / conflict
// 409); inserts bound for one partition are forwarded in ID-allocation
// order, since a node admits a caller-assigned ID only above its current
// ID space. Reads and writes share one attempt (per-try timeout, a
// breaker with consecutive-failure ejection and half-open recovery, one
// verdict) and one retry loop with capped jittered backoff; reads add
// p99-triggered hedging against replicas and failover from a dead leader
// to the freshest replica — gated by LSN write watermarks, so a stale
// follower never answers a read that misses an acknowledged write. When
// a whole partition is unreachable reads fail fast with 503; on /v1/topk
// the ?allow_partial=1 flag opts into the survivors' merged answer, marked
// "degraded":true — incomplete answers are opt-in and marked, never
// silent. Steady-state reads load-balance by power-of-two-choices over
// the leader and every replica whose cached LSN has reached the write
// watermark; balancing and hedging have no switch.
//
// Leader loss heals itself: when a leader stays ejected past
// Config.PromoteAfter the router promotes the live replica with the
// highest LSN — provided it has reached the write watermark — via POST
// /v1/admin/promote, fenced by a
// generation number allocated strictly above any the cluster has
// reported. Writes are stamped with the topology's generation and nodes
// refuse mismatches, so a deposed leader can't take writes; when it
// rejoins still claiming leadership at a stale generation, the router
// demotes it into a follower of the current leader. A follower needs
// WithPromotionWALDir to be promotable — an undurable node never
// becomes a leader. The internal/netfault chaos suite (asymmetric
// partitions, mid-body TCP resets, throttling, hard kills) enforces all
// of this differentially against a single-node oracle, under the race
// detector in CI — including a hard leader kill healed by promotion
// with no acked-write loss and no split-brain.
//
// # Performance
//
// A query is snapshotted, planned and swept. The snapshot is one atomic
// load (see above). The plan resolves the query's shape (active dimensions,
// roles, zero weights) to the signed weights of the score kernel, one O(d)
// pass per query into its pooled context. Then the memtable's rows and
// every sealed segment are swept exactly by one column kernel
// (simd.ScoreCols); a query whose weights are all zero scores every row +0
// and answers the k lowest live IDs.
//
// A segment sweep is zone-mapped. Every sealed segment keeps its rows
// STR-tiled (Sort-Tile-Recursive) in 128-row blocks with a min/max box
// each — derived state, rebuilt at every seal and at load, never written to
// a file, which keeps ID order. The sweep bounds every block by its box in
// one pass (BRS's per-rectangle bound), scores the best block to seed the
// prune line, then scores blocks best bound first until the best bound left
// falls below the line: at 1M uniform 6-d rows it scores a few thousand
// rows, in 0.08–0.14 ms on one thread of a 2-vCPU box (k = 1–50).
// QueryStats names the work: Scored counts every row whose exact score was
// computed, Swept the live rows of the swept segments (scored, or skipped
// with their block), BlocksBounded and BlocksSkipped the blocks bounded and
// skipped, and SweptSegments the segments swept — every one. Fetched,
// Subproblems and Rounds are kept for compatibility and read 0.
//
// The paper's §5 aggregation — a §4 pair tree per pair of the in-order zip
// of repulsive and attractive dimensions, a sorted list per leftover
// dimension, and a bound-driven Threshold-Algorithm scheduler over them —
// is the reproduction's own static index in internal/bench, which
// cmd/sdbench's figures build and a differential test holds to the scan
// oracle. The served index holds no trees. At 1M uniform 6-d rows the zone
// sweep answers in about 0.24 ms on one core of the 2-vCPU box the numbers
// here come from, less than half of what a stream probe before it cost;
// only at 2 dimensions, where one pair tree prunes deep, did the streams
// still win. Answers are byte-identical to the scan oracle
// (property-tested and fuzzed).
//
// All per-query state — weights, the sweep's block bounds, heap and
// scratch, the result collector, the plan — lives in the index's sync.Pool
// contexts. SDIndex.TopKAppend appends results into a caller-reused buffer;
// on a compacted index (empty memtable — the steady state background
// compaction converges to), and over a WithShards stack alike, it performs
// zero heap allocations per query, which
// alloc_test.go asserts with testing.AllocsPerRun. The TopK convenience
// forms allocate only the returned slice, and BatchTopK only its answer
// plus a constant handful of objects per call.
//
// Sealed segments and the memtable store their coordinates in
// dimension-major columns, and every sweep, of a segment or of the
// memtable, runs one 8-wide unrolled kernel over those columns
// (simd.ScoreCols). The columns
// are float64 only: a float32 sweep copy measured 1.1–1.55× slower in every
// cell, because the sweep is compute-bound, and was retired.
//
// A query is never split across goroutines: one loop sweeps every sealed
// segment in turn, so QueryStats is a pure function of the query
// and the snapshot, counter by counter, on every configuration — an index
// built with NewShardedIndex counts exactly what NewSDIndex with the same
// WithShards counts, and a served stats request repeats byte for byte.
// Releases before this one could fan one query's segments out over a worker
// pool under a shared prune floor, which made those counters depend on
// timing; on the 2-vCPU box the numbers come from it saved 0–25 % of engine
// time on an idle core and nothing under concurrent load, where parallelism
// across queries already uses the CPUs.
//
// Reproduce the numbers with `go test -bench 'BenchmarkTopK$' -benchmem .`
// or regenerate the machine-readable trajectory with
// `go run ./cmd/sdbench -json BENCH_sdbench.json`; the committed
// BENCH_sdbench.json is the baseline future changes compare against, and
// `-baseline BENCH_sdbench.json` turns a fresh report into a regression
// gate (CI's bench-smoke job runs exactly that).
//
// # Quick start
//
//	data := [][]float64{ ... }            // n × d
//	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive}
//	idx, err := sdquery.NewSDIndex(data, roles)
//	...
//	res, err := idx.TopK(sdquery.Query{
//		Point:   []float64{0.3, 0.7},
//		K:       5,
//		Roles:   roles,
//		Weights: []float64{1, 1},
//	})
//
// See examples/ for runnable scenarios: the zoology example from the paper's
// introduction, online-advertising publisher selection, and chemical
// scaffold hopping.
package sdquery
