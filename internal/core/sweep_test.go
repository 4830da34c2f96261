package core

import (
	"errors"
	"testing"

	"repro/internal/baseline/scan"
	"repro/internal/dataset"
	"repro/internal/query"
)

func sweepTestRoles() []query.Role {
	return []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
}

func sweepTestSpec(k int) query.Spec {
	return query.Spec{
		Point:   []float64{0.3, 0.7, 0.1, 0.9},
		K:       k,
		Roles:   sweepTestRoles(),
		Weights: []float64{0.8, 0.5, 0.3, 0.9},
	}
}

// TestSealIndexesBySize pins the seal rule: a segment no dearer to sweep than
// one stream is to probe carries no index structures and is swept by every
// query; one row more and it is indexed; a stream-pinned engine indexes
// everything. Answers agree with the scan either way.
func TestSealIndexesBySize(t *testing.T) {
	roles := sweepTestRoles()
	floor := RateWindow * DefaultAccessCost
	for _, tc := range []struct {
		rows, cost int
		indexed    bool
	}{
		{floor, 0, false},
		{floor + 1, 0, true},
		{floor, -1, true},
		{3, -1, true},
		{RateWindow * 2, 2, false},
		{RateWindow*2 + 1, 2, true},
	} {
		data := dataset.Generate(dataset.Uniform, tc.rows, len(roles), 5)
		currentData = data
		eng, err := New(data, Config{Roles: roles, RuntimeOptions: RuntimeOptions{AccessCost: tc.cost}})
		if err != nil {
			t.Fatal(err)
		}
		seg := eng.snap.Load().segs[0]
		if seg.indexed != tc.indexed || (seg.trees != nil) != tc.indexed {
			t.Fatalf("%d rows at access cost %d: indexed = %v (trees built: %v), want %v",
				tc.rows, tc.cost, seg.indexed, seg.trees != nil, tc.indexed)
		}
		_, st, err := eng.TopKWithStats(sweepTestSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		if !tc.indexed && (st.SweptSegments != 1 || st.Swept != tc.rows || st.Fetched != 0 || st.Subproblems != 0) {
			t.Fatalf("%d unindexed rows: stats %+v, want one segment swept whole", tc.rows, st)
		}
		truth, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, "seal", eng, truth, sweepTestSpec(3))
	}
}

// TestCancelMidSweep closes the query's done channel while a sweep is under
// way — deterministically: a query over two sweep-only segments runs on the
// caller's goroutine, and the done channel is closed the moment the first
// sweep completes. The second sweep is entered unconditionally (nothing
// polls between two swept-first segments), so the only place it can notice
// is the sweep's own poll: a zone sweep polls as it starts, before bounding
// its blocks, and then every zonePollBlocks blocks it scores. The query must
// report ErrCanceled, abandon the second sweep, and leak nothing: the same
// engine then answers uncancelled queries exactly.
func TestCancelMidSweep(t *testing.T) {
	const segRows = 4 * sweepPollBlocks * sweepBlock
	data := dataset.Generate(dataset.Uniform, 2*segRows, 4, 9)
	currentData = data
	eng, err := New(data, Config{Roles: sweepTestRoles(), RuntimeOptions: RuntimeOptions{Segments: 2, AccessCost: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := eng.Segments(); segs != 2 {
		t.Fatalf("%d segments, want 2", segs)
	}
	done := make(chan struct{})
	eng.sweptHook = func() {
		eng.sweptHook = nil
		close(done)
	}
	spec := sweepTestSpec(5)
	res, st, err := eng.TopKAppendCancel(nil, spec, done)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (stats %+v)", err, st)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled query returned %d results", len(res))
	}
	// The first segment was swept whole; the second sweep was abandoned.
	if st.SweptSegments != 1 || st.Swept != segRows {
		t.Fatalf("stats %+v, want exactly one completed sweep of %d rows", st, segRows)
	}
	truth, err := scan.New(data)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 64; k *= 4 {
		checkAgainst(t, "after-cancel", eng, truth, sweepTestSpec(k))
	}
}
