// Command sdrouter is the cluster front door for a fleet of sdservers: it
// partitions the ID space across leader groups with rendezvous hashing,
// scatter-gathers reads into exact global top-k answers, retries and hedges
// around slow or dead nodes, and routes every write to the owning
// partition's leader under a cluster-unique ID (package serve/router).
//
// Topology is given as one -partition flag per leader group: the partition
// name, then the leader URL, then any replica URLs, comma-separated. A
// two-partition cluster where each leader has one follower:
//
//	sdrouter -addr :9000 \
//	    -partition p0=http://node1:8080,http://node2:8080 \
//	    -partition p1=http://node3:8080,http://node4:8080
//
// Query the cluster exactly as one sdserver (same wire format, byte-identical
// answers):
//
//	curl -s localhost:9000/v1/topk -d '{"point":[...],"k":5,"roles":[...]}'
//
// When a whole partition is unreachable, reads answer 503 by default; a
// client that prefers availability over completeness may opt into the
// survivors' merged answer, marked "degraded":true, with ?allow_partial=1
// (on /v1/topk only: a batch is all or nothing).
//
// Read balancing and hedging take no flags: a read's first try goes to the
// faster of two random nodes fresh enough for the partition's write
// watermark, and hedges to the other once it outlasts that node's p99.
//
// Partition names are the rendezvous identity: keep them stable across
// restarts and reconfigurations, or slots (and therefore row ownership)
// will move.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/serve/router"
)

// partitionFlags collects repeated -partition name=leader[,replica...] flags.
type partitionFlags []router.Partition

func (p *partitionFlags) String() string { return fmt.Sprintf("%d partitions", len(*p)) }

func (p *partitionFlags) Set(v string) error {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=leaderURL[,replicaURL...], got %q", v)
	}
	parts := strings.Split(urls, ",")
	for i, u := range parts {
		parts[i] = strings.TrimSpace(u)
		if !strings.HasPrefix(parts[i], "http://") && !strings.HasPrefix(parts[i], "https://") {
			return fmt.Errorf("partition %s: node %q is not an http(s) URL", name, parts[i])
		}
		parts[i] = strings.TrimRight(parts[i], "/")
	}
	*p = append(*p, router.Partition{Name: name, Leader: parts[0], Replicas: parts[1:]})
	return nil
}

func main() {
	var partitions partitionFlags
	var (
		addr    = flag.String("addr", ":9000", "listen address")
		slots   = flag.Int("slots", 64, "rendezvous slots the ID space folds into (all routers over one cluster must agree)")
		tryTO   = flag.Duration("try-timeout", 2*time.Second, "per-attempt deadline")
		retries = flag.Int("retries", 2, "retries after a failed attempt (0 disables retries)")
		backoff = flag.Duration("backoff-base", 10*time.Millisecond, "first retry backoff (doubles per retry up to 500ms, jittered)")
		healthI = flag.Duration("health-interval", 250*time.Millisecond, "active health-check cadence")
		failN   = flag.Int("fail-after", 3, "consecutive failures before a node is ejected")
		reopen  = flag.Duration("reopen-after", time.Second, "ejection time before a node is retried half-open")
		promote = flag.Duration("promote-after", 3*time.Second, "continuous leader unhealthiness before the most caught-up replica is promoted (0 disables automated promotion)")
		drainT  = flag.Duration("drain-timeout", 15*time.Second, "maximum graceful-drain wait on SIGTERM")
	)
	flag.Var(&partitions, "partition", "name=leaderURL[,replicaURL...] (repeat per partition)")
	flag.Parse()

	if len(partitions) == 0 {
		fmt.Fprintln(os.Stderr, "sdrouter: at least one -partition is required")
		flag.Usage()
		os.Exit(2)
	}
	// In Config the zero value means "default"; the CLI says what it means,
	// so 0 maps to the explicit "disabled" sentinel for both knobs.
	cfgRetries := *retries
	if cfgRetries == 0 {
		cfgRetries = -1
	}
	cfgPromote := *promote
	if cfgPromote == 0 {
		cfgPromote = -1
	}
	rt, err := router.New(router.Config{
		Partitions:     partitions,
		Slots:          *slots,
		TryTimeout:     *tryTO,
		Retries:        cfgRetries,
		BackoffBase:    *backoff,
		HealthInterval: *healthI,
		FailAfter:      *failN,
		ReopenAfter:    *reopen,
		PromoteAfter:   cfgPromote,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sdrouter: routing %d partitions (%d slots) on %s\n",
		len(partitions), *slots, *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "sdrouter: draining (up to %s)\n", *drainT)
		dctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Fprintln(os.Stderr, "sdrouter: drained")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdrouter:", err)
	os.Exit(1)
}
