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

// TestSealIndexesBySize pins the seal rule (the name is historical: a
// retired planner indexed a segment by its size): a segment of any size is
// answered by one sweep of every live row — flat for a single block, zoned
// for more — and answers agree with the scan.
func TestSealIndexesBySize(t *testing.T) {
	roles := sweepTestRoles()
	for _, rows := range []int{3, blockRows + 1, 8 * blockRows} {
		data := dataset.Generate(dataset.Uniform, rows, len(roles), 5)
		currentData = data
		eng, err := New(data, Config{Roles: roles})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := eng.TopKWithStats(sweepTestSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		bounded := 0 // a segment of one block is swept flat
		if blocks := (rows + blockRows - 1) / blockRows; blocks > 1 {
			bounded = blocks
		}
		if st.SweptSegments != 1 || st.Swept != rows || st.BlocksBounded != bounded {
			t.Fatalf("%d rows: stats %+v, want one segment swept whole", rows, st)
		}
		truth, err := scan.New(data)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, "seal", eng, truth, sweepTestSpec(3))
	}
}

// TestCancelMidSweep closes the query's done channel while a sweep is under
// way — deterministically: a query over two segments runs on the caller's
// goroutine, and the done channel is closed the moment the first sweep
// completes. The second sweep is entered unconditionally (nothing polls
// between two segment sweeps), so the only place it can notice is the
// sweep's own poll: a zone sweep polls as it starts, before bounding its
// blocks, and then every zonePollBlocks blocks it scores. The query must
// report ErrCanceled, abandon the second sweep, and leak nothing: the same
// engine then answers uncancelled queries exactly.
func TestCancelMidSweep(t *testing.T) {
	const segRows = 4 * sweepPollBlocks * sweepBlock
	data := dataset.Generate(dataset.Uniform, 2*segRows, 4, 9)
	currentData = data
	eng, err := New(data, Config{Roles: sweepTestRoles(), RuntimeOptions: RuntimeOptions{Segments: 2}})
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
