package router

import (
	"fmt"
	"net/http"
	"time"
)

// Router observability: /healthz (liveness plus per-node breaker states),
// /statz (JSON snapshot of topology, watermarks, and counters), /metrics
// (Prometheus text format).

// NodeStatz is one node's row in the router's Statz.
type NodeStatz struct {
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"`
	P99Ms   float64 `json:"p99_ms"`
}

// PartitionStatz is one partition's block in the router's Statz.
type PartitionStatz struct {
	Name       string      `json:"name"`
	Generation uint64      `json:"generation"`
	Leader     NodeStatz   `json:"leader"`
	Replicas   []NodeStatz `json:"replicas"`
	HW         []uint64    `json:"write_watermark,omitempty"`
}

// Statz is the router's JSON diagnostic snapshot.
type Statz struct {
	Role       string           `json:"role"`
	Slots      int              `json:"slots"`
	Partitions []PartitionStatz `json:"partitions"`

	Reads             uint64 `json:"reads"`
	Writes            uint64 `json:"writes"`
	Retries           uint64 `json:"retries"`
	Hedges            uint64 `json:"hedges"`
	ReplicaReads      uint64 `json:"replica_reads"`
	StaleRejects      uint64 `json:"stale_rejects"`
	Degraded          uint64 `json:"degraded_responses"`
	PartitionFailures uint64 `json:"partition_failures"`
	Unavailable       uint64 `json:"unavailable_responses"`
	Errors4xx         uint64 `json:"errors_4xx"`
	Promotions        uint64 `json:"promotions"`
	Demotions         uint64 `json:"demotions"`
	NextID            int64  `json:"next_id"`
}

func nodeStatz(n *node) NodeStatz {
	return NodeStatz{
		URL:     n.url,
		Healthy: n.healthy(),
		P99Ms:   float64(n.lat.quantile(0.99)) / float64(time.Millisecond),
	}
}

// Statz returns the router's current snapshot (what GET /statz serves).
func (rt *Router) Statz() Statz {
	st := Statz{
		Role:              "router",
		Slots:             rt.cfg.Slots,
		Reads:             rt.met.reads.Load(),
		Writes:            rt.met.writes.Load(),
		Retries:           rt.met.retries.Load(),
		Hedges:            rt.met.hedges.Load(),
		ReplicaReads:      rt.met.replicaReads.Load(),
		StaleRejects:      rt.met.staleRejects.Load(),
		Degraded:          rt.met.degraded.Load(),
		PartitionFailures: rt.met.partitionFailures.Load(),
		Unavailable:       rt.met.unavailable.Load(),
		Errors4xx:         rt.met.errors4xx.Load(),
		Promotions:        rt.met.promotions.Load(),
		Demotions:         rt.met.demotions.Load(),
		NextID:            rt.nextID.Load(),
	}
	for _, p := range rt.parts {
		topo := p.topo.Load()
		ps := PartitionStatz{Name: p.name, Generation: topo.gen, Leader: nodeStatz(topo.leader)}
		if hw := p.hw.Load(); hw > 0 {
			ps.HW = []uint64{hw} // one-element vector: the shape peers and dashboards parse
		}
		for _, r := range topo.replicas {
			ps.Replicas = append(ps.Replicas, nodeStatz(r))
		}
		st.Partitions = append(st.Partitions, ps)
	}
	return st
}

// handleHealthz: the router is alive as long as it runs; the body reports
// what it can reach. It answers 503 only when every node of some partition
// is ejected — the state in which reads are guaranteed to fail.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	dead := ""
	for _, p := range rt.parts {
		anyUp := false
		for _, n := range p.topo.Load().nodes() {
			anyUp = anyUp || n.healthy()
		}
		if !anyUp {
			dead = p.name
			break
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if dead != "" {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: partition %s has no live nodes\n", dead)
		return
	}
	fmt.Fprintf(w, "ok\nrole: router\n")
	for _, p := range rt.parts {
		topo := p.topo.Load()
		for _, n := range topo.nodes() {
			state := "up"
			if !n.healthy() {
				state = "ejected"
			}
			role := "replica"
			if n == topo.leader {
				role = "leader"
			}
			fmt.Fprintf(w, "node %s (%s, %s): %s\n", n.url, p.name, role, state)
		}
	}
}

func (rt *Router) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Statz())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := rt.Statz()
	series := []struct {
		name string
		help string
		kind string
		v    uint64
	}{
		{"sdrouter_reads_total", "Read requests (topk + batch).", "counter", st.Reads},
		{"sdrouter_writes_total", "Write requests (insert + remove).", "counter", st.Writes},
		{"sdrouter_retries_total", "Retried attempts.", "counter", st.Retries},
		{"sdrouter_hedges_total", "Hedged read attempts launched.", "counter", st.Hedges},
		{"sdrouter_replica_reads_total", "Reads answered by a non-leader node.", "counter", st.ReplicaReads},
		{"sdrouter_stale_rejects_total", "Replica answers rejected as staler than the write watermark.", "counter", st.StaleRejects},
		{"sdrouter_degraded_responses_total", "allow_partial responses served with a degraded marker.", "counter", st.Degraded},
		{"sdrouter_partition_failures_total", "Partition-level fetch failures.", "counter", st.PartitionFailures},
		{"sdrouter_unavailable_total", "Requests answered 503.", "counter", st.Unavailable},
		{"sdrouter_promotions_total", "Replicas promoted to partition leader.", "counter", st.Promotions},
		{"sdrouter_demotions_total", "Stale leaders demoted to follower.", "counter", st.Demotions},
	}
	for _, s := range series {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.kind, s.name, s.v)
	}
	fmt.Fprintf(w, "# HELP sdrouter_node_up Node health by URL (1 = breaker closed).\n# TYPE sdrouter_node_up gauge\n")
	for _, p := range rt.parts {
		for _, n := range p.topo.Load().nodes() {
			up := 0
			if n.healthy() {
				up = 1
			}
			fmt.Fprintf(w, "sdrouter_node_up{partition=%q,url=%q} %d\n", p.name, n.url, up)
		}
	}
	fmt.Fprintf(w, "# HELP sdrouter_partition_generation Fencing generation by partition.\n# TYPE sdrouter_partition_generation gauge\n")
	for _, p := range rt.parts {
		fmt.Fprintf(w, "sdrouter_partition_generation{partition=%q} %d\n", p.name, p.topo.Load().gen)
	}
}
