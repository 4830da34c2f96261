package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	sdquery "repro"
)

// metricDef is one metric as BENCHMARK.json lists it. bench_test.go holds
// these two tables and that file to the same names, so they cannot drift.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run prints: what a user of the system sees.
// The set-up time comes first; every other figure is the median over the
// timed phase's windows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"topk_p50_ms", "ms", "lower"},
	{"topk_p99_ms", "ms", "lower"},
	{"topk_qps", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer is what a traced run prints, one prefix per module. A metric a
// workload has no layer for reads 0 there.
var perLayer = []metricDef{
	{"sdquery.topk_us", "us", "lower"},
	{"sdquery.busy_share", "ratio", "lower"},
	{"sdquery.insert_us", "us", "lower"},
	{"sdquery.remove_us", "us", "lower"},
	{"sdquery.build_s", "s", "lower"},
	{"core.fetched_per_query", "count", "lower"},
	{"core.scored_per_query", "count", "lower"},
	{"core.rounds_per_query", "count", "lower"},
	{"core.subproblems_per_query", "count", "lower"},
	{"core.segments_per_query", "count", "lower"},
	{"core.plan_cache_hit_rate", "ratio", "higher"},
	{"core.scored_per_result", "ratio", "lower"},
	{"core.ns_per_fetched", "ns", "lower"},
	{"core.bytes_per_row", "B", "lower"},
	{"core.segments_end", "count", "lower"},
	{"core.mem_rows_end", "count", "lower"},
	{"core.compactions", "count", "lower"},
	{"baseline.scan_us", "us", "lower"},
	{"baseline.scan_ratio", "ratio", "lower"},
	{"serve.handle_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.coalesced_batch_mean", "count", "higher"},
	{"serve.cache_hit_rate", "ratio", "higher"},
	{"serve.cache_rejects", "count", "lower"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.errors", "count", "lower"},
	{"wal.fsyncs_per_write", "ratio", "lower"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.degraded", "count", "lower"},
	{"repl.lag_records_p50", "count", "lower"},
	{"repl.lag_records_max", "count", "lower"},
	{"repl.catchup_ms", "ms", "lower"},
	{"router.handle_us", "us", "lower"},
	{"router.self_us", "us", "lower"},
	{"router.fanout_skew_us", "us", "lower"},
	{"router.hedge_share", "ratio", "lower"},
	{"router.retry_share", "ratio", "lower"},
	{"router.replica_read_share", "ratio", "higher"},
	{"router.stale_rejects", "count", "lower"},
	{"router.partition_failures", "count", "lower"},
	{"client.net_us", "us", "lower"},
	{"client.topk_samples", "count", "higher"},
	{"client.write_p50_ms", "ms", "lower"},
	{"client.write_p99_ms", "ms", "lower"},
	{"client.failed_share", "ratio", "lower"},
	{"gen.late_p50_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines_end", "count", "lower"},
	{"proc.calib_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.self_sum_share", "ratio", "higher"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric under the unit its table gives it.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is in no table")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }

// runRecord is the machine and run description every output carries: the
// line before the result on standard output, and the first line of a trace
// file.
func runRecord(o options, clients int, timed phaseStats, kernelMs float64) string {
	rec := map[string]any{
		"record":        "run",
		"workload":      o.workload,
		"seed":          o.seed,
		"timed_seconds": o.seconds,
		"traced":        o.trace,
		"clients":       clients,
		"topk_samples":  timed.samples,
		"window_p50_ms": timed.windowP50ms, // as measured, before scaling
		"calib_ms":      kernelMs,
		"calib_ref_ms":  calibRefMs,
		"wal_sync":      walSyncName,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return `{"record":"run"}`
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// workCounters are the engine's own counts of the work a query takes, read
// over a fixed probe set once the load has stopped. On a workload without
// writes they repeat exactly from run to run.
type workCounters struct {
	queries                                        int
	fetched, scored, rounds, subproblems, segments int
	planHits, planLookups, results                 int
	scanUs                                         float64 // median scan time on the probe set's head
}

// probeWork runs the probe set through every index the benchmark built
// (a query on the cluster costs what both leaders spend on it) and times
// the scan baseline on the same queries.
func probeWork(o options, d *deployment, oracle sdquery.Engine) *workCounters {
	probe := genQueries(o.sizes.probe, o.seed, streamProbe)
	wc := &workCounters{queries: len(probe)}
	for _, e := range d.engines() {
		for _, q := range probe {
			res, st, err := e.TopKWithStats(q)
			if err != nil {
				continue
			}
			wc.fetched += st.Fetched
			wc.scored += st.Scored
			wc.rounds += st.Rounds
			wc.subproblems += st.Subproblems
			wc.segments += st.Segments
			wc.planHits += st.PlanCacheHits
			wc.planLookups += max(st.PlanCacheHits, 1)
			wc.results += len(res)
		}
	}
	var scanNs []int64
	for _, q := range probe[:min(o.sizes.scanProbe, len(probe))] {
		t0 := time.Now()
		if _, err := oracle.TopK(q); err == nil {
			scanNs = append(scanNs, int64(time.Since(t0)))
		}
	}
	wc.scanUs = medianNs(scanNs, 1e3)
	return wc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills in every per-layer metric of a traced run.
func layerMetrics(res *result, o options, d *deployment, lr *loadResult, lt *layerTimes,
	wc *workCounters, timed, traced phaseStats, ops int) {
	for _, def := range perLayer {
		res.set(def.name, 0)
	}
	q := float64(max(wc.queries, 1))

	// sdquery: the engine API, timed at the serve→engine boundary.
	topkUs := medianNs(lt.engineTopK, 1e3)
	res.set("sdquery.topk_us", topkUs)
	res.set("sdquery.busy_share", ratio(float64(lt.engineNs), float64(lt.clientNs)))
	res.set("sdquery.insert_us", medianNs(lt.engineInsert, 1e3))
	res.set("sdquery.remove_us", medianNs(lt.engineRemove, 1e3))
	res.set("sdquery.build_s", d.built.Seconds())

	// core: work counters over the probe set, and the store's shape.
	res.set("core.fetched_per_query", float64(wc.fetched)/q)
	res.set("core.scored_per_query", float64(wc.scored)/q)
	res.set("core.rounds_per_query", float64(wc.rounds)/q)
	res.set("core.subproblems_per_query", float64(wc.subproblems)/q)
	res.set("core.segments_per_query", float64(wc.segments)/q)
	res.set("core.plan_cache_hit_rate", ratio(float64(wc.planHits), float64(wc.planLookups)))
	res.set("core.scored_per_result", ratio(float64(wc.scored), float64(wc.results)))
	res.set("core.ns_per_fetched", ratio(topkUs*1e3, float64(wc.fetched)/q))
	var bytes, rows, segs, mem int
	for _, e := range d.engines() {
		s, m := e.Segments()
		segs, mem = segs+s, mem+m
		bytes, rows = bytes+e.Bytes(), rows+e.Len()
	}
	res.set("core.bytes_per_row", ratio(float64(bytes), float64(rows)))
	res.set("core.segments_end", float64(segs))
	res.set("core.mem_rows_end", float64(mem))
	var compactions uint64
	for i := range lr.after.compactions {
		compactions += lr.after.compactions[i] - lr.before.compactions[i]
	}
	res.set("core.compactions", float64(compactions))

	res.set("baseline.scan_us", wc.scanUs)
	res.set("baseline.scan_ratio", ratio(topkUs, wc.scanUs))

	// serve: handler spans, and the servers' own counters over the timed
	// phases, summed over the nodes.
	res.set("serve.handle_us", medianNs(lt.serveHandle, 1e3))
	res.set("serve.self_us", medianNs(lt.serveSelf, 1e3))
	var batches, coalesced, hits, misses, rejects, r429, errs uint64
	for i := range lr.after.serve {
		a, b := lr.after.serve[i], lr.before.serve[i]
		batches += a.CoalescedBatches - b.CoalescedBatches
		coalesced += a.CoalescedQueries - b.CoalescedQueries
		hits += a.CacheHits - b.CacheHits
		misses += a.CacheMisses - b.CacheMisses
		rejects += a.CacheRejects - b.CacheRejects
		for name, ep := range a.Endpoints {
			r429 += ep.Rejected - b.Endpoints[name].Rejected
			errs += ep.Errors - b.Endpoints[name].Errors
		}
	}
	res.set("serve.coalesced_batch_mean", ratio(float64(coalesced), float64(batches)))
	res.set("serve.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	res.set("serve.cache_rejects", float64(rejects))
	res.set("serve.rejected_429", float64(r429))
	res.set("serve.errors", float64(errs))

	if d.cluster != nil {
		// wal: both leaders' logs over the timed phases.
		var appends, fsyncs, walBytes, degraded uint64
		for i := range lr.after.wal {
			a, b := lr.after.wal[i], lr.before.wal[i]
			appends += a.Appends - b.Appends
			fsyncs += a.Fsyncs - b.Fsyncs
			walBytes += a.Bytes - b.Bytes
			if a.Err != nil {
				degraded++
			}
		}
		res.set("wal.fsyncs_per_write", ratio(float64(fsyncs), float64(appends)))
		res.set("wal.bytes_per_write", ratio(float64(walBytes), float64(appends)))
		res.set("wal.degraded", float64(degraded))

		lag := sortedCopy(lr.lag)
		res.set("repl.lag_records_p50", float64(quantile(lag, 0.5)))
		res.set("repl.lag_records_max", float64(quantile(lag, 1)))
		res.set("repl.catchup_ms", float64(lr.catchup)/1e6)

		a, b := lr.after.router, lr.before.router
		reads := float64(a.Reads - b.Reads)
		// A read asks every partition, so per-partition events are shared
		// out over reads × partitions.
		asks := reads * clusterPartitions
		res.set("router.handle_us", medianNs(lt.routerHandle, 1e3))
		res.set("router.self_us", medianNs(lt.routerSelf, 1e3))
		res.set("router.fanout_skew_us", medianNs(lt.fanoutSkew, 1e3))
		res.set("router.hedge_share", ratio(float64(a.Hedges-b.Hedges), asks))
		res.set("router.retry_share", ratio(float64(a.Retries-b.Retries), asks+float64(a.Writes-b.Writes)))
		res.set("router.replica_read_share", ratio(float64(a.ReplicaReads-b.ReplicaReads), asks))
		res.set("router.stale_rejects", float64(a.StaleRejects-b.StaleRejects))
		res.set("router.partition_failures", float64(a.PartitionFailures-b.PartitionFailures))

		wl := []*clientLog{&lr.writer.clientLog}
		w1, w2 := windowStats(wl, phTimed, lr.timedNs), windowStats(wl, phTraced, lr.timedNs)
		res.set("client.write_p50_ms", (w1.p50ms+w2.p50ms)/2)
		res.set("client.write_p99_ms", (w1.p99ms+w2.p99ms)/2)
		late := sortedCopy(lr.writer.late)
		res.set("gen.late_p50_ms", float64(quantile(late, 0.50))/1e6)
		res.set("gen.late_p99_ms", float64(quantile(late, 0.99))/1e6)
		// An inserted row is dims float64s: the user's bytes.
		res.set("wal.bytes_per_user_byte", ratio(float64(walBytes), float64(lr.writer.inserts)*dims*8))
	}

	res.set("client.net_us", medianNs(lt.clientNet, 1e3))
	res.set("client.topk_samples", float64(timed.samples+traced.samples))
	res.set("client.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	res.set("proc.allocs_per_op", ratio(float64(lr.after.mem.Mallocs-lr.before.mem.Mallocs), float64(ops)))
	res.set("proc.gc_pause_ms", float64(lr.after.mem.PauseTotalNs-lr.before.mem.PauseTotalNs)/1e6)
	res.set("proc.goroutines_end", float64(lr.goroutines))
	res.set("trace.overhead_pct", 100*ratio(traced.p50ms-timed.p50ms, timed.p50ms))
	res.set("trace.self_sum_share", ratio(float64(lt.selfSumNs), float64(lt.clientNs)))
}

// separationFailures asserts, on a traced run, what each workload is there
// for; a workload that stopped stressing its layer is not worth its name.
func separationFailures(o options, res *result, lr *loadResult) []string {
	var out []string
	check := func(name string, v, lo, hi float64) {
		if v < lo || v > hi {
			out = append(out, fmt.Sprintf("%s is %.4g on %s, want within [%g, %g]", name, v, o.workload, lo, hi))
		}
	}
	metric := func(name string, lo, hi float64) { check(name, res.get(name), lo, hi) }
	const inf = 1e300
	switch o.workload {
	case wlLib:
		metric("sdquery.busy_share", 0.9, inf)
	case wlDistinct:
		metric("serve.cache_hit_rate", 0, 0.02)
	case wlHot:
		metric("serve.cache_hit_rate", 0.85, 0.95)
	case wlCluster:
		// The writer keeps its schedule: in the median it sends within one
		// interval of when the write was due.
		metric("gen.late_p50_ms", 0, 1e3/float64(o.sizes.writeRate))
		if o.seconds >= runSeconds {
			for i := range lr.after.compactions {
				n := lr.after.compactions[i] - lr.before.compactions[i]
				check(fmt.Sprintf("core.compactions of leader %d", i), float64(n), 6, inf)
			}
		}
	}
	metric("trace.self_sum_share", 0.95, 1.05)
	return out
}
