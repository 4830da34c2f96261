package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// availabilityFloor is the absolute availability the cluster failover
// workload must clear regardless of the baseline: at least 99% of reads
// answered across a window containing a hard leader kill. Failing it means
// failover is broken in a way no latency tolerance expresses.
const availabilityFloor = 0.99

// availabilitySlack is the run-to-run noise allowance against the committed
// baseline (half a percent of reads).
const availabilitySlack = 0.005

// writeUnavailableCeilingMs is the absolute cap on the cluster failover
// workload's write-unavailability window: the hard leader kill must be healed
// by automated replica promotion within this many milliseconds, or writes to
// the killed partition are effectively down. The workload runs with
// PromoteAfter at 750ms, so a healthy promotion lands well under a second;
// 5s absorbs a slow machine's probe/health-check jitter while still failing
// a promotion path that silently stopped firing (the workload reports a
// 30,000ms sentinel when writes never recover).
const writeUnavailableCeilingMs = 5000

// scoredRegressionTolerance gates the hardware-independent signal: on
// single-engine workloads the count of rows a query scores exactly — the
// rows of the blocks its zone sweep could not skip — is a deterministic
// function of the seeded workload and the algorithm, identical on every
// machine, so it catches algorithmic regressions that timing noise would
// hide. The small headroom only keeps a deliberate off-by-a-few change from
// blocking CI; any real change to pruning must regenerate the baseline in
// the same commit.
const scoredRegressionTolerance = 0.05

// diffAgainstBaseline loads the committed baseline report and fails (with
// every violation listed) when the fresh report breaks a rule that holds on
// any machine:
//
//   - a workload present in the baseline is missing from the fresh report
//     (renames must update the baseline, not silently drop coverage);
//   - a workload that was allocation-free in the baseline allocates;
//   - a "topk/…" workload's scored_mean grew by more than
//     scoredRegressionTolerance — the deterministic, hardware-independent
//     regression signal. batch/topk is exempt: its index is split into
//     GOMAXPROCS segments, so its counters follow the machine's CPU count;
//   - the failover workload's availability or write-unavailability window
//     crossed its absolute bound.
//
// ns/op and p99 are printed next to the baseline's but gate nothing: on a
// shared machine they swing by more than any tolerance that would still
// catch a regression, and end-to-end speed is the repository benchmark's
// job (BENCHMARK.json). The scales must match — the counters, like ns/op,
// depend on the dataset size — and so must the schema.
func diffAgainstBaseline(baselinePath string, fresh benchJSON) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != fresh.Schema {
		return fmt.Errorf("baseline schema %q != report schema %q: regenerate the baseline", base.Schema, fresh.Schema)
	}
	if base.Scale != fresh.Scale {
		return fmt.Errorf("baseline scale %g != report scale %g: ns/op is not comparable across scales", base.Scale, fresh.Scale)
	}
	byName := make(map[string]workloadJSON, len(fresh.Workloads))
	for _, w := range fresh.Workloads {
		byName[w.Name] = w
	}
	var violations []string
	for _, b := range base.Workloads {
		f, ok := byName[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("workload %q: present in baseline, missing from report", b.Name))
			continue
		}
		// Batch ns/op and the per-query counter means both scale with the
		// query count, so a -queries mismatch would fake (or mask) a
		// regression exactly like a scale mismatch.
		if b.Queries != f.Queries {
			violations = append(violations, fmt.Sprintf(
				"workload %q: %d queries, baseline has %d: not comparable", b.Name, f.Queries, b.Queries))
			continue
		}
		// Timing is printed for the reader, not gated (see above).
		fmt.Fprintf(os.Stderr, "sdbench: %-24s ns/op %d (baseline %d)", b.Name, f.NsPerOp, b.NsPerOp)
		if b.P99NsPerOp > 0 && f.P99NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, ", p99 %d (baseline %d)", f.P99NsPerOp, b.P99NsPerOp)
		}
		fmt.Fprintln(os.Stderr)
		// AllocsPerOp < 0 marks an unattributable measurement (servers
		// sharing the global counters) — no alloc invariant to gate.
		if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
			violations = append(violations, fmt.Sprintf(
				"workload %q: %d allocs/op, baseline guarantees 0", b.Name, f.AllocsPerOp))
		}
		// Availability gate: the failover workload must keep ~every read
		// answered across the leader kill — both absolutely (the 99% floor)
		// and relative to the committed baseline (no silent erosion). A drop
		// here means retries, ejection, or replica failover stopped masking
		// the kill, whatever the latency numbers say.
		if b.Availability > 0 {
			if f.Availability < availabilityFloor {
				violations = append(violations, fmt.Sprintf(
					"workload %q: availability %.4f below the %.2f floor — failover is not masking node loss",
					b.Name, f.Availability, availabilityFloor))
			} else if f.Availability < b.Availability-availabilitySlack {
				violations = append(violations, fmt.Sprintf(
					"workload %q: availability %.4f collapsed from baseline %.4f",
					b.Name, f.Availability, b.Availability))
			}
		}
		// Write-unavailability gate: absolute, like the availability floor.
		// The baseline carrying the field arms the gate; the fresh number is
		// judged against the fixed ceiling, not the baseline, because the
		// quantity is mostly the PromoteAfter constant plus jitter — a
		// lucky-fast baseline must not ratchet the requirement.
		if b.WriteUnavailableMs > 0 && f.WriteUnavailableMs > writeUnavailableCeilingMs {
			violations = append(violations, fmt.Sprintf(
				"workload %q: write-unavailability window %.0fms exceeds the %dms ceiling — automated promotion is not healing the killed partition",
				b.Name, f.WriteUnavailableMs, writeUnavailableCeilingMs))
		}
		if strings.HasPrefix(b.Name, "topk/") && b.ScoredMean > 0 {
			if limit := b.ScoredMean * (1 + scoredRegressionTolerance); f.ScoredMean > limit {
				violations = append(violations, fmt.Sprintf(
					"workload %q: scored_mean %.1f exceeds baseline %.1f by more than %.0f%% (hardware-independent)",
					b.Name, f.ScoredMean, b.ScoredMean, scoredRegressionTolerance*100))
			}
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchmark regression vs %s:\n  %s", baselinePath, strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "sdbench: no regression vs %s (%d workloads)\n", baselinePath, len(base.Workloads))
	return nil
}
