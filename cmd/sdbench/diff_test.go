package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, b benchJSON) string {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffAgainstBaseline pins the CI gate's rules: ns/op and p99 never fail
// it, however far they move; any allocation in a zero-alloc workload, a
// scored_mean growth past 5%, the failover workload's absolute bounds and
// dropped workloads do; scale/schema mismatches are refused.
func TestDiffAgainstBaseline(t *testing.T) {
	base := benchJSON{
		Schema: benchJSONSchema,
		Scale:  1,
		Workloads: []workloadJSON{
			{Name: "topk/sdindex-append", NsPerOp: 1_000_000, AllocsPerOp: 0, ScoredMean: 2000},
			{Name: "topk/sdindex", NsPerOp: 1_000_000, AllocsPerOp: 4},
			{Name: "batch/topk", NsPerOp: 1_000_000, AllocsPerOp: 70, ScoredMean: 2000},
			{Name: "cluster/failover", NsPerOp: 1_000_000, P99NsPerOp: 2_000_000, AllocsPerOp: -1, Availability: 0.999, WriteUnavailableMs: 800},
		},
	}
	path := writeBaseline(t, base)

	ok := benchJSON{Schema: benchJSONSchema, Scale: 1, Workloads: []workloadJSON{
		{Name: "topk/sdindex-append", NsPerOp: 3_000_000, AllocsPerOp: 0, ScoredMean: 2080}, // 3× ns: printed, not gated; +4% scored: within tolerance
		{Name: "topk/sdindex", NsPerOp: 900_000, AllocsPerOp: 6, ScoredMean: 1e9},           // allocs gated only at baseline 0; no baseline scored_mean arms nothing
		{Name: "batch/topk", NsPerOp: 1_000_000, AllocsPerOp: 70, ScoredMean: 9000},         // segment count follows CPU count: exempt
		{Name: "cluster/failover", NsPerOp: 1_400_000, P99NsPerOp: 9_000_000, AllocsPerOp: -1,
			Availability: 0.996, WriteUnavailableMs: 4_500}, // both absolute gates: above the floor, under the ceiling
		{Name: "topk/new-workload", NsPerOp: 1, AllocsPerOp: 99}, // extra workloads are fine
	}}
	if err := diffAgainstBaseline(path, ok); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		mut  func(*benchJSON)
		want string
	}{
		{"alloc regression", func(b *benchJSON) { b.Workloads[0].AllocsPerOp = 1 }, "guarantees 0"},
		{"scored regression", func(b *benchJSON) { b.Workloads[0].ScoredMean = 2120 }, "hardware-independent"}, // +6%
		{"queries mismatch", func(b *benchJSON) { b.Workloads[0].Queries = 128 }, "not comparable"},
		{"availability floor", func(b *benchJSON) { b.Workloads[3].Availability = 0.985 }, "below the 0.99 floor"},
		{"availability collapse", func(b *benchJSON) { b.Workloads[3].Availability = 0.991 }, "collapsed from baseline"},
		{"write-unavailability ceiling", func(b *benchJSON) { b.Workloads[3].WriteUnavailableMs = 30_000 }, "ceiling"},
		{"missing workload", func(b *benchJSON) { b.Workloads = b.Workloads[1:] }, "missing from report"},
		{"scale mismatch", func(b *benchJSON) { b.Scale = 0.25 }, "not comparable"},
		{"schema mismatch", func(b *benchJSON) { b.Schema = "sdbench/v12" }, "regenerate the baseline"}, // the last schema with a plan-cache hit rate
	} {
		fresh := benchJSON{Schema: benchJSONSchema, Scale: 1,
			Workloads: append([]workloadJSON(nil), ok.Workloads...)}
		tc.mut(&fresh)
		err := diffAgainstBaseline(path, fresh)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
