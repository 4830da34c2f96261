package sdquery_test

import (
	"bytes"
	"testing"

	sdquery "repro"
)

// TestDefaultIndexOnlySweeps pins the served plan: an index answers every
// sealed segment with a zone sweep — as built, after churn and Compact, and
// after Save → Load. Every query sweeps every segment (the deprecated stream
// counters read 0), and Bytes() is exactly the column block, the ID map and
// its inverse, the block boxes, the tombstones and the per-dimension
// extrema.
func TestDefaultIndexOnlySweeps(t *testing.T) {
	const n, dims, blockRows = 20_000, 6, 128
	data, roles, queries := servedWorkload(n, 60, 47)
	idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	check := func(stage string, idx *sdquery.SDIndex) {
		t.Helper()
		segs, mem := idx.Segments()
		if segs != 1 || mem != 0 {
			t.Fatalf("%s: %d segments and %d memtable rows, want one segment", stage, segs, mem)
		}
		rows := idx.Len()
		blocks := (rows + blockRows - 1) / blockRows
		want := 8*rows*dims + // columns
			4*rows + 4*rows + // global IDs and byID
			8*2*dims*blocks + // block boxes
			8*2*dims // minVal and maxVal
		if got := idx.Bytes(); got != want {
			t.Fatalf("%s: Bytes() = %d, want %d for %d rows", stage, got, want, rows)
		}
		if perRow := float64(idx.Bytes()) / float64(rows); perRow > 60 {
			t.Fatalf("%s: %.1f B/row, want at most 60", stage, perRow)
		}
		for qi, q := range queries {
			_, st, err := idx.TopKWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.Fetched != 0 || st.Subproblems != 0 || st.Rounds != 0 || st.SweptSegments != segs {
				t.Fatalf("%s query %d: %+v, want every segment swept", stage, qi, st)
			}
		}
	}
	check("built", idx)

	for i := 0; i < 500; i++ {
		if _, err := idx.Insert(data[i*7]); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n; id += 3 {
		idx.Remove(id)
	}
	idx.Compact()
	check("compacted", idx)

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := sdquery.LoadSDIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	check("loaded", loaded)
}
