package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	sdquery "repro"
	"repro/serve"
	"repro/serve/router"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlLib      = "lib-topk"
	wlDistinct = "serve-distinct"
	wlHot      = "serve-hot"
	wlCluster  = "cluster-mixed"
)

var workloadNames = []string{wlLib, wlDistinct, wlHot, wlCluster}

// sizes are the knobs the smoke test shrinks; a real run uses fullSizes.
type sizes struct {
	libRows   int           // lib-topk rows: 48 MB of columns, past the 4 MB L2
	serveRows int           // every served workload: 2.4 MB, fits L2
	warmup    time.Duration // untimed, before the timed phase
	setups    int           // fewest set-ups per untraced run; setup_s is their median
	setupFor  float64       // seconds: cheap set-ups are repeated until they took this long together
	writeRate int           // cluster-mixed open-loop writes per second
	probe     int           // probe-set queries for the work counters
	scanProbe int           // how many of them also time the scan baseline
	routed    int           // cluster-mixed: probe queries checked after quiescing
	separated bool          // assert what each workload is for; holds at full size only
	calib     int           // calibration kernel: loads per goroutine per round
}

var fullSizes = sizes{
	libRows: 1_000_000, serveRows: 50_000, warmup: 3 * time.Second, setups: 3, setupFor: 2,
	writeRate: 400, probe: 256, scanProbe: 64, routed: 64, separated: true,
	calib: 1 << 24,
}

// maxSetups caps how often an untraced run repeats a cheap set-up.
const maxSetups = 15

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	scratch  string    // directory for WAL directories and the trace file
	log      io.Writer // the run record and progress lines
}

// clientCount is the load shape every workload shares: two load goroutines
// (one reader and the writer on cluster-mixed), fewer only on a one-CPU box,
// never more than there are CPUs.
func clientCount(workload string) (int, error) {
	n := min(2, runtime.NumCPU())
	if workload == wlCluster && n < 2 {
		return 0, fmt.Errorf("benchmark: %s needs a reader and a writer, more clients than this machine's 1 CPU", workload)
	}
	return n, nil
}

// deployment is the program under test as one workload runs it.
type deployment struct {
	lib     *sdquery.SDIndex
	node    *node
	cluster *cluster
	dir     string        // the cluster's WAL directories
	built   time.Duration // the index constructors' share of set-up
}

func (d *deployment) close() {
	switch {
	case d.lib != nil:
		d.lib.Close()
	case d.node != nil:
		d.node.close()
	case d.cluster != nil:
		d.cluster.close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	// The router and the followers pull through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// deploy sets the workload's program up once: index build, servers and
// router started, followers caught up (NewFollower bootstraps before it
// returns).
func deploy(o options, rows [][]float64, rec *recorder) (*deployment, error) {
	d := &deployment{}
	var err error
	switch o.workload {
	case wlLib:
		t0 := time.Now()
		d.lib, err = buildLib(rows)
		d.built = time.Since(t0)
	case wlDistinct, wlHot:
		d.node, d.built, err = buildServeNode(rows, rec)
	case wlCluster:
		if d.dir, err = os.MkdirTemp(o.scratch, "cluster-*"); err != nil {
			return nil, err
		}
		d.cluster, d.built, err = buildCluster(rows, d.dir, o.seed, rec)
		if err != nil {
			os.RemoveAll(d.dir)
		}
	default:
		err = fmt.Errorf("benchmark: unknown workload %q (have %v)", o.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// statsIndex is the engine surface the work counters are read from.
type statsIndex interface {
	TopKWithStats(q sdquery.Query) ([]sdquery.Result, sdquery.QueryStats, error)
	Segments() (segments, memRows int)
	Compactions() uint64
	Bytes() int
	Len() int
}

// engines lists the indexes the benchmark built itself: the library index,
// the node's, or each leader's.
func (d *deployment) engines() []statsIndex {
	switch {
	case d.lib != nil:
		return []statsIndex{d.lib}
	case d.node != nil:
		return []statsIndex{d.node.idx}
	}
	var out []statsIndex
	for _, l := range d.cluster.leaders {
		out = append(out, l.idx)
	}
	return out
}

func (d *deployment) nodes() []*node {
	switch {
	case d.node != nil:
		return []*node{d.node}
	case d.cluster != nil:
		return append(append([]*node(nil), d.cluster.leaders...), d.cluster.followers...)
	}
	return nil
}

// counters is a snapshot of everything the program counts about itself,
// plus the process's CPU time and allocator state.
type counters struct {
	serve       []serve.Statz
	router      router.Statz
	wal         []sdquery.WALStats
	compactions []uint64
	mem         runtime.MemStats
	cpuNs       int64
}

func (d *deployment) snapshot() counters {
	var c counters
	for _, n := range d.nodes() {
		c.serve = append(c.serve, n.srv.Statz())
	}
	if d.cluster != nil {
		c.router = d.cluster.rt.Statz()
		for _, l := range d.cluster.leaders {
			c.wal = append(c.wal, l.idx.WALStats())
		}
	}
	for _, e := range d.engines() {
		c.compactions = append(c.compactions, e.Compactions())
	}
	runtime.ReadMemStats(&c.mem)
	c.cpuNs = processCPU()
	return c
}

// processCPU is the process's user+system CPU time so far.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapMB is the live heap after two collections: the second empties the
// sync.Pool victim caches, whose fill depends on where the run happened to
// stop.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// loadResult is everything the load phase measured.
type loadResult struct {
	readers    []*clientLog
	writer     *writeLog
	lag        []int64
	before     counters // at the start of the first timed phase
	after      counters // at the end of the last
	timedNs    int64    // length of each timed phase
	windowCPU  []int64  // process CPU time at the first timed phase\'s start and at each window\'s end
	catchup    time.Duration
	goroutines int
}

// logs lists every load goroutine's log, the writer's last.
func (lr *loadResult) logs() []*clientLog {
	logs := append([]*clientLog(nil), lr.readers...)
	if lr.writer != nil {
		logs = append(logs, &lr.writer.clientLog)
	}
	return logs
}

// runLoad drives warm-up and the timed phase (and, traced, a second timed
// phase with spans on) against a deployment.
func runLoad(o options, d *deployment, rec *recorder, clients int) (*loadResult, error) {
	clock := &phaseClock{rec: rec}
	clock.enter(phWarm)
	lr := &loadResult{timedNs: int64(o.seconds * float64(time.Second))}
	if o.trace {
		lr.timedNs /= 2
	}

	var pool *hotPool
	if o.workload == wlHot {
		pool = newHotPool(o.seed)
	}
	readers := clients
	if o.workload == wlCluster {
		readers = 1
	}
	var wg sync.WaitGroup
	var closers []*httpClient
	for c := 0; c < readers; c++ {
		st := newStream(o.seed, c, pool)
		var op opFunc
		if d.lib != nil {
			st.noBody = true // a direct call has no request body
			op = libOp(d.lib, rec)
		} else {
			h := newHTTPClient()
			closers = append(closers, h)
			op = h.httpOp(d.url())
		}
		log := &clientLog{}
		lr.readers = append(lr.readers, log)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			closedLoop(clock, c, st, op, log)
		}(c)
	}
	if d.cluster != nil {
		lr.writer = &writeLog{inserted: map[int][]float64{}, removed: map[int]bool{}}
		wg.Add(2)
		go func() {
			defer wg.Done()
			openLoopWriter(clock, d.cluster.url, o.seed, o.sizes.writeRate, lr.writer)
		}()
		go func() {
			defer wg.Done()
			lr.lag = sampleLag(clock, d.cluster.followers)
		}()
	}

	// sleepWindows sits out one timed phase, reading the process's CPU
	// time at every window's end.
	sleepWindows := func() {
		began := rec.base.Add(time.Duration(clock.start[clock.cur.Load()]))
		for w := int64(1); w <= windows; w++ {
			time.Sleep(time.Until(began.Add(time.Duration(lr.timedNs * w / windows))))
			lr.windowCPU = append(lr.windowCPU, processCPU())
		}
	}
	time.Sleep(o.sizes.warmup)
	lr.before = d.snapshot()
	clock.enter(phTimed)
	lr.windowCPU = append(lr.windowCPU, lr.before.cpuNs)
	sleepWindows()
	if o.trace {
		rec.on.Store(true)
		clock.enter(phTraced)
		sleepWindows()
	}
	clock.enter(phDone)
	lr.after = d.snapshot()
	stopped := time.Now()
	lr.goroutines = runtime.NumGoroutine()
	wg.Wait()
	rec.on.Store(false)
	for _, h := range closers {
		h.close()
	}
	if d.cluster != nil {
		if err := d.cluster.quiesce(30 * time.Second); err != nil {
			return nil, err
		}
		lr.catchup = time.Since(stopped)
	}
	return lr, nil
}

// libOp calls the library index directly, reusing one result buffer.
func libOp(idx *sdquery.SDIndex, rec *recorder) opFunc {
	var buf []sdquery.Result
	return func(q sdquery.Query, _ []byte, keep bool) ([]sdquery.Result, error) {
		var err error
		t0 := rec.now()
		buf, err = idx.TopKAppend(buf[:0], q)
		if rec.on.Load() {
			rec.add(span{kind: spEngine, batch: 1, key: hashQuery(q), start: t0, end: rec.now()})
		}
		if err != nil || !keep {
			return nil, err
		}
		return append([]sdquery.Result(nil), buf...), nil
	}
}

// url is where the workload's clients send their requests.
func (d *deployment) url() string {
	if d.cluster != nil {
		return d.cluster.url
	}
	return d.node.url
}

// quiesce waits until every follower has applied everything its leader has
// logged.
func (c *cluster) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for pi := range c.leaders {
		for {
			ls, fs := c.leaders[pi].srv.Statz().ReplLSNs, c.followers[pi].srv.Statz().ReplLSNs
			ok := len(ls) > 0 && len(ls) == len(fs)
			for i := range ls {
				ok = ok && fs[i] >= ls[i]
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("benchmark: follower %d never caught up (leader %v, follower %v)", pi, ls, fs)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// execute runs one workload end to end and returns its result line.
func execute(o options) (*result, error) {
	clients, err := clientCount(o.workload)
	if err != nil {
		return nil, err
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(o.log, "warning: fewer than 2 CPUs: load generator and program share one, timings are not comparable")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}

	// Inputs. Data generation is not part of set-up time.
	var rows [][]float64
	if o.workload == wlLib {
		rows = uniformRows(o.sizes.libRows, o.seed)
	} else {
		rows = clusteredRows(o.sizes.serveRows, o.seed)
	}
	oracle, err := newOracle(rows)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over on an untraced run: setup_s is the median,
	// the last deployment is the one measured. A set-up that takes a tenth
	// of a second is repeated more often, for about the same total.
	rec := newRecorder()
	wrap := rec
	if !o.trace {
		wrap = nil
	}
	var d *deployment
	var setupS []float64
	for total := 0.0; ; {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = deploy(o, rows, wrap); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
		if n := len(setupS); o.trace || n >= maxSetups || (n >= o.sizes.setups && total >= o.sizes.setupFor) {
			break
		}
	}
	defer d.close()
	heap := heapMB()

	// The machine's speed right before and right after the load (calib.go).
	rounds := calibrate(clients, o.sizes.calib)
	lr, err := runLoad(o, d, rec, clients)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		rounds = append(rounds, calibrate(clients, o.sizes.calib)...)
	}
	kernelMs := secondLowest(rounds)

	res := &result{Metrics: map[string]metric{}}
	v := &verifier{o: o, rows: rows, oracle: oracle, res: res}
	v.tally(lr)
	v.checkKept(lr)
	var probeStats *workCounters
	if o.trace {
		probeStats = probeWork(o, d, oracle)
	}
	if d.cluster != nil {
		v.checkCluster(d, lr.writer)
	}
	heap = max(heap, heapMB())

	ops := 0 // operations completed inside the timed phases
	for _, l := range lr.logs() {
		ops += len(l.samples)
	}
	timed := windowStats(lr.readers, phTimed, lr.timedNs)
	record := runRecord(o, clients, timed, kernelMs)
	fmt.Fprintln(o.log, record)

	if !o.trace {
		// Times are scaled to the reference machine; the run record has the
		// kernel time and the measured p50s to undo it with.
		speed := calibRefMs / kernelMs
		res.set("setup_s", medianOf(setupS)*speed)
		res.set("topk_p50_ms", timed.p50ms*speed)
		res.set("topk_p99_ms", timed.p99ms*speed)
		res.set("topk_qps", timed.qps/speed)
		res.set("cpu_ms_per_op", cpuPerOp(lr)*speed)
		res.set("heap_mb", heap)
	} else {
		shape := traceShape{router: d.cluster != nil, node: d.lib == nil, tracedNodes: map[int8]bool{}}
		for _, n := range d.nodes() {
			shape.tracedNodes[int8(n.id)] = n.idx != nil
		}
		lt := joinSpans(rec.spans, shape)
		path := filepath.Join(o.scratch, "trace-"+o.workload+".jsonl")
		if err := writeTrace(path, record, rec.spans, lt); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "trace: %d spans of %d requests (%d unmatched) written to %s\n",
			len(rec.spans), lt.requests, lt.unmatched, path)
		traced := windowStats(lr.readers, phTraced, lr.timedNs)
		layerMetrics(res, o, d, lr, lt, probeStats, timed, traced, ops)
		res.set("proc.calib_ms", kernelMs)
		if o.sizes.separated {
			for _, msg := range separationFailures(o, res, lr) {
				v.failf("workload separation: %s", msg)
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, e := range v.errs {
		fmt.Fprintln(o.log, "FAILED:", e)
	}
	return res, nil
}

// cpuPerOp is the process's CPU time per operation completed (reads and
// writes), per window of the untraced timed phase, second-lowest window.
func cpuPerOp(lr *loadResult) float64 {
	var ops [windows]int
	for _, l := range lr.logs() {
		for _, s := range l.samples {
			if s.phase == phTimed {
				ops[windowOf(s.end, lr.timedNs)]++
			}
		}
	}
	var per []float64
	for w, n := range ops {
		per = append(per, float64(lr.windowCPU[w+1]-lr.windowCPU[w])/1e6/float64(max(n, 1)))
	}
	return secondLowest(per)
}
