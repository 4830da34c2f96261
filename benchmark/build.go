package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	sdquery "repro"
	"repro/serve"
	"repro/serve/router"
)

// Every call that constructs a piece of the program under test is in this
// file, so a later change to a constructor's signature touches the benchmark
// here and nowhere else.

// newOracle is the correctness reference: the sequential scan over rows,
// whose result IDs are row positions.
func newOracle(rows [][]float64) (sdquery.Engine, error) {
	return sdquery.NewScan(rows)
}

// buildLib builds the single-engine SD-Index with its default options.
func buildLib(rows [][]float64) (*sdquery.SDIndex, error) {
	return sdquery.NewSDIndex(rows, roles)
}

// WAL sync policy of every durable node: fsync before each acknowledgement,
// the sdserver default. Stated in the run record; the same on both sides of
// any comparison.
const (
	walSyncPolicy = sdquery.SyncAlways
	walSyncName   = "always"
)

// memtableRows makes a leader's engines seal and compact several times
// inside one run at the cluster workload's write rate.
const memtableRows = 256

// serveOptions spells out what cmd/sdserver passes to the serving layer when
// started with no flags: coalesce window 500 µs, batches of up to 64, queue
// of 1024, result cache on with 1024 entries, default workers.
func serveOptions() []serve.Option {
	return []serve.Option{
		serve.WithCoalesceWindow(500 * time.Microsecond),
		serve.WithMaxBatch(64),
		serve.WithQueueDepth(1024),
		serve.WithResultCache(true),
		serve.WithCacheCapacity(1024),
		serve.WithLoadOptions(sdquery.WithWorkers(0)),
	}
}

// node is one running sdserver equivalent on a loopback listener.
type node struct {
	id     int // what its spans are recorded under
	srv    *serve.Server
	hs     *http.Server
	url    string
	idx    *sdquery.ShardedIndex // nil on a follower, which builds its own
	dir    string                // WAL directory of a durable leader
	closed bool
}

// startNode serves srv on a fresh loopback port, through the recorder's
// handler wrapper when the run is traced.
func startNode(srv *serve.Server, rec *recorder, id int) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = rec.handler(spNode, id, h)
	}
	n := &node{id: id, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go n.hs.Serve(ln) // returns once close() closes the server
	return n, nil
}

func (n *node) close() {
	if n.closed {
		return
	}
	n.closed = true
	n.hs.Close()
	n.srv.Close()
	if n.idx != nil {
		n.idx.Close()
	}
}

// serveIndex is what a node's server is built over: the concrete index, or
// the span-recording wrapper around it on a traced run.
func serveIndex(idx *sdquery.ShardedIndex, rec *recorder, id int) serve.Index {
	if rec == nil {
		return idx
	}
	return &tracedIndex{ShardedIndex: idx, rec: rec, node: int8(id)}
}

// buildServeNode builds one node as cmd/sdserver builds it from a CSV:
// NewShardedIndex with default shards and workers, default serving options.
// It also returns the index constructor's share of the time.
func buildServeNode(rows [][]float64, rec *recorder) (*node, time.Duration, error) {
	t0 := time.Now()
	idx, err := sdquery.NewShardedIndex(rows, roles, sdquery.WithShards(0), sdquery.WithWorkers(0))
	if err != nil {
		return nil, 0, err
	}
	built := time.Since(t0)
	n, err := startNode(serve.New(serveIndex(idx, rec, 0), serveOptions()...), rec, 0)
	if err != nil {
		idx.Close()
		return nil, 0, err
	}
	n.idx = idx
	return n, built, nil
}

const clusterPartitions = 2

// cluster is the routed deployment: per partition a durable leader and one
// follower, behind a router with sdrouter's defaults. Node ids are
// 2×partition for the leader and 2×partition+1 for its follower.
type cluster struct {
	leaders   []*node
	followers []*node
	rt        *router.Router
	hs        *http.Server
	url       string
}

func (c *cluster) close() {
	if c.hs != nil {
		c.hs.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, n := range c.followers {
		n.close()
	}
	for _, n := range c.leaders {
		n.close()
	}
}

// buildCluster deals the seed rows round-robin over the partitions (row i
// keeps global ID i), starts the leaders over WAL directories under dir,
// bootstraps one follower from each, and puts the router in front.
func buildCluster(rows [][]float64, dir string, seed uint64, rec *recorder) (*cluster, time.Duration, error) {
	c := &cluster{}
	var built time.Duration
	var parts []router.Partition
	for pi := 0; pi < clusterPartitions; pi++ {
		var prow [][]float64
		var pids []int
		for id := pi; id < len(rows); id += clusterPartitions {
			prow = append(prow, rows[id])
			pids = append(pids, id)
		}
		walDir := filepath.Join(dir, fmt.Sprintf("p%d", pi))
		t0 := time.Now()
		idx, err := sdquery.NewShardedIndexWithIDs(prow, pids, roles,
			sdquery.WithShards(0), sdquery.WithWorkers(0),
			sdquery.WithWAL(walDir), sdquery.WithSyncPolicy(walSyncPolicy),
			sdquery.WithMemtableSize(memtableRows))
		if err != nil {
			c.close()
			return nil, 0, err
		}
		built += time.Since(t0)
		leader, err := startNode(serve.New(serveIndex(idx, rec, 2*pi), serveOptions()...), rec, 2*pi)
		if err != nil {
			idx.Close()
			c.close()
			return nil, 0, err
		}
		leader.idx, leader.dir = idx, walDir
		c.leaders = append(c.leaders, leader)

		fsrv, err := serve.NewFollower(leader.url,
			append(serveOptions(), serve.WithFollowInterval(200*time.Millisecond))...)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		follower, err := startNode(fsrv, rec, 2*pi+1)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		c.followers = append(c.followers, follower)
		parts = append(parts, router.Partition{
			Name: fmt.Sprintf("p%d", pi), Leader: leader.url, Replicas: []string{follower.url},
		})
	}
	// Everything but the topology and the jitter seed is sdrouter's default.
	rt, err := router.New(router.Config{Partitions: parts, Seed: int64(seed | 1)})
	if err != nil {
		c.close()
		return nil, 0, err
	}
	c.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, 0, err
	}
	h := rt.Handler()
	if rec != nil {
		h = rec.handler(spRouter, -1, h)
	}
	c.hs = &http.Server{Handler: h}
	c.url = "http://" + ln.Addr().String()
	go c.hs.Serve(ln) // returns once close() closes the server
	return c, built, nil
}

// reopenLeader recovers a closed leader's index from its WAL directory
// alone, as a restarted sdserver -wal-dir would.
func reopenLeader(dir string) (*sdquery.ShardedIndex, error) {
	idx, err := sdquery.OpenShardedIndex(dir, sdquery.WithWorkers(0), sdquery.WithSyncPolicy(walSyncPolicy))
	if err != nil {
		return nil, fmt.Errorf("reopen %s: %w", dir, err)
	}
	return idx, nil
}
