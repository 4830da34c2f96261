package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/serve"
	"repro/serve/router"
)

// Cluster failover workload: a two-partition cluster (each a WAL-backed
// leader with one live follower) behind the scatter-gather router, driven by
// a closed-loop read pool — and halfway through the measurement window,
// partition 0's leader is hard-killed. The reported figures are the ones a
// cluster is accountable for: read qps and latency percentiles through the
// router, availability — the fraction of reads answered 200 across the
// window that contains the kill — and the write-unavailability window, the
// time from the kill until the router's automated replica promotion has
// writes to the killed partition succeeding again. The router's
// retry/failover machinery keeps availability at ~1.0 and the diff gate
// fails the build if it drops below 99% or collapses against the committed
// baseline; the write window is gated against an absolute 5s ceiling.

// clusterReadOps is the closed-loop read count for the failover window.
// Small enough for CI, large enough that the kill lands mid-stream with
// plenty of traffic on both sides of it.
const clusterReadOps = 1536

// runClusterFailover measures the cluster's behavior across a leader kill.
func runClusterFailover(scale float64, queryCount int, seed int64) (workloadJSON, error) {
	var w workloadJSON
	n := int(20_000 * scale)
	if n < 1000 {
		n = 1000
	}
	if queryCount <= 0 {
		queryCount = 64
	}
	const dims, attractive, k = 6, 3, 5
	data := dataset.Generate(dataset.Uniform, n, dims, seed)
	specs, roles := bench.BatchSpecs(dims, attractive, k, queryCount, seed+1)

	dir, err := os.MkdirTemp("", "sdbench-cluster-*")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)

	// Two partitions; seed rows deal out round-robin (strictly ascending IDs
	// per partition, as the ID-preserving constructor requires). Reads don't
	// care how rows are placed — every partition is consulted — and the
	// write phase routes by ownership on its own.
	const nParts = 2
	partRows := make([][][]float64, nParts)
	partIDs := make([][]int, nParts)
	for id, row := range data {
		partRows[id%nParts] = append(partRows[id%nParts], row)
		partIDs[id%nParts] = append(partIDs[id%nParts], id)
	}

	type nodeProc struct {
		srv *serve.Server
		hs  *http.Server
		url string
	}
	startNode := func(s *serve.Server) (*nodeProc, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		return &nodeProc{srv: s, hs: hs, url: "http://" + ln.Addr().String()}, nil
	}

	leaders := make([]*nodeProc, nParts)
	followers := make([]*nodeProc, nParts)
	cfg := router.Config{
		Slots: 64, Seed: seed,
		Retries: 3, BackoffBase: 5 * time.Millisecond,
		TryTimeout: 2 * time.Second, HealthInterval: 50 * time.Millisecond,
		FailAfter: 2, ReopenAfter: 500 * time.Millisecond,
		PromoteAfter: 750 * time.Millisecond,
	}
	defer func() {
		for _, np := range append(append([]*nodeProc{}, leaders...), followers...) {
			if np != nil {
				np.hs.Close()
				np.srv.Close()
			}
		}
	}()
	for pi := 0; pi < nParts; pi++ {
		idx, err := sdquery.NewShardedIndexWithIDs(partRows[pi], partIDs[pi], roles,
			sdquery.WithShards(2),
			sdquery.WithWAL(fmt.Sprintf("%s/p%d", dir, pi)),
			sdquery.WithSyncPolicy(sdquery.SyncInterval),
			sdquery.WithSyncInterval(50*time.Millisecond))
		if err != nil {
			return w, err
		}
		if leaders[pi], err = startNode(serve.New(idx)); err != nil {
			return w, err
		}
		fs, err := serve.NewFollower(leaders[pi].url,
			serve.WithFollowInterval(50*time.Millisecond),
			serve.WithPromotionWALDir(fmt.Sprintf("%s/promote%d", dir, pi)))
		if err != nil {
			return w, err
		}
		if followers[pi], err = startNode(fs); err != nil {
			return w, err
		}
		cfg.Partitions = append(cfg.Partitions, router.Partition{
			Name:     fmt.Sprintf("p%d", pi),
			Leader:   leaders[pi].url,
			Replicas: []string{followers[pi].url},
		})
	}
	rt, err := router.New(cfg)
	if err != nil {
		return w, err
	}
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, err
	}
	rhs := &http.Server{Handler: rt.Handler()}
	go rhs.Serve(rln)
	defer rhs.Close()
	routerURL := "http://" + rln.Addr().String()

	// Closed-loop clients: enough concurrency to keep every node busy on a
	// small CI machine without drowning it.
	clients := max(8, 2*runtime.GOMAXPROCS(0))
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}}

	// Write phase: a burst of inserts through the router, so the measurement
	// runs against a cluster whose write path (ID assignment, ownership
	// routing, watermark tracking) has actually been exercised.
	writeRows := dataset.Generate(dataset.Uniform, 64, dims, seed+7)
	for i, row := range writeRows {
		body, _ := json.Marshal(map[string]any{"point": row}) // generated finite floats: cannot fail
		resp, err := client.Post(routerURL+"/v1/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			return w, fmt.Errorf("cluster write %d: %w", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return w, fmt.Errorf("cluster write %d: status %d", i, resp.StatusCode)
		}
	}

	// Quiesce: both followers caught up, so the post-kill replica holds every
	// acked write and the failover serves complete answers.
	for pi := 0; pi < nParts; pi++ {
		if err := waitReplCaughtUp(leaders[pi].srv, followers[pi].srv, 15*time.Second); err != nil {
			return w, err
		}
	}

	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		names := make([]string, dims)
		for d, r := range sp.Roles {
			names[d] = r.String()
		}
		bodies[i], _ = json.Marshal(map[string]any{"point": sp.Point, "k": sp.K, "roles": names, "weights": sp.Weights})
	}
	doOne := func(body []byte) (time.Duration, bool, error) {
		t0 := time.Now()
		resp, err := client.Post(routerURL+"/v1/topk", "application/json", bytes.NewReader(body))
		if err != nil {
			// Transport-level failure against the router itself: count as an
			// unavailable read, not a harness error.
			return 0, false, nil
		}
		var sink [512]byte
		for {
			if _, err := resp.Body.Read(sink[:]); err != nil {
				break
			}
		}
		resp.Body.Close()
		return time.Since(t0), resp.StatusCode == http.StatusOK, nil
	}
	for i := 0; i < clients; i++ { // warm-up
		if _, ok, err := doOne(bodies[i%len(bodies)]); err != nil || !ok {
			return w, fmt.Errorf("cluster warm-up read failed (ok=%v err=%v)", ok, err)
		}
	}

	// Measurement: closed-loop reads; once half the ops have completed, kill
	// partition 0's leader hard (listener and every connection die).
	perClient := clusterReadOps / clients
	if perClient < 1 {
		perClient = 1
	}
	var completed atomic.Int64
	var killed atomic.Bool
	var killTime time.Time // written before killedCh closes; read after
	killedCh := make(chan struct{})
	killAt := int64(clients * perClient / 2)

	// Write-unavailability prober: from the instant of the kill, fire a
	// one-shot auto-ID insert every ~20ms and record when writes stop
	// failing. Roughly half the probes land on the killed partition, so a
	// long run of consecutive successes — not a single success — is the
	// signal that promotion restored the whole write path (16 in a row is a
	// ~2^-16 false positive if the dead partition were still refusing). The
	// window is kill → last observed failure; capped at 30s if writes never
	// recover, which the diff gate then fails.
	const probeSuccessRun = 16
	probeRows := dataset.Generate(dataset.Uniform, 512, dims, seed+9)
	writeUnavailable := make(chan float64, 1)
	go func() {
		<-killedCh
		kt := killTime
		deadline := kt.Add(30 * time.Second)
		var lastFail time.Time
		consec := 0
		for i := 0; consec < probeSuccessRun; i++ {
			if time.Now().After(deadline) {
				writeUnavailable <- 30_000 // never recovered: report the cap
				return
			}
			body, _ := json.Marshal(map[string]any{"point": probeRows[i%len(probeRows)]})
			ok := false
			if resp, err := client.Post(routerURL+"/v1/insert", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
			if ok {
				consec++
			} else {
				consec = 0
				lastFail = time.Now()
			}
			time.Sleep(20 * time.Millisecond)
		}
		if lastFail.IsZero() {
			writeUnavailable <- 0
			return
		}
		writeUnavailable <- float64(lastFail.Sub(kt)) / float64(time.Millisecond)
	}()
	lats := make([][]int64, clients)
	var okReads, totalReads atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			mine := make([]int64, 0, perClient)
			for i := 0; i < perClient; i++ {
				if completed.Add(1) >= killAt && killed.CompareAndSwap(false, true) {
					killTime = time.Now()
					leaders[0].hs.Close() // the kill: mid-window, no drain
					close(killedCh)
				}
				d, ok, _ := doOne(bodies[(c*perClient+i)%len(bodies)])
				totalReads.Add(1)
				if ok {
					okReads.Add(1)
					mine = append(mine, d.Nanoseconds())
				}
			}
			lats[c] = mine
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	if !killed.Load() {
		return w, fmt.Errorf("cluster failover: the kill never fired (%d ops)", completed.Load())
	}
	wums := <-writeUnavailable

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return w, fmt.Errorf("cluster failover: no read succeeded")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum int64
	for _, l := range all {
		sum += l
	}
	w.N, w.Dims, w.K, w.Queries = n, dims, k, queryCount
	w.NsPerOp = sum / int64(len(all))
	w.P50NsPerOp = all[len(all)/2]
	w.P99NsPerOp = all[len(all)*99/100]
	w.AllocsPerOp = -1 // cross-process HTTP path: no per-op attribution
	w.BytesPerOp = -1
	w.QPS = float64(len(all)) / wall.Seconds()
	w.Availability = float64(okReads.Load()) / float64(totalReads.Load())
	w.WriteUnavailableMs = wums
	return w, nil
}

// waitReplCaughtUp polls until follower's applied LSN has reached the
// leader's (Statz carries each as a one-element array).
func waitReplCaughtUp(leader, follower *serve.Server, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if follower.Statz().ReplLSNs[0] >= leader.Statz().ReplLSNs[0] {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cluster failover: follower never caught up (leader %v, follower %v)",
		leader.Statz().ReplLSNs, follower.Statz().ReplLSNs)
}
