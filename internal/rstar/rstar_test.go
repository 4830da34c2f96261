package rstar

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randomData(rng *rand.Rand, n, dims int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func buildTree(t *testing.T, pts [][]float64, maxEntries int) *Tree {
	t.Helper()
	tr := New(len(pts[0]), maxEntries)
	for i, p := range pts {
		if err := tr.Insert(p, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestInsertValidation(t *testing.T) {
	tr := New(2, 8)
	if err := tr.Insert([]float64{1}, 0); err == nil {
		t.Error("wrong dims: want error")
	}
	if err := tr.Insert([]float64{1, math.NaN()}, 0); err == nil {
		t.Error("NaN: want error")
	}
	if err := tr.Insert([]float64{1, math.Inf(1)}, 0); err == nil {
		t.Error("Inf: want error")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 8) did not panic")
		}
	}()
	New(0, 8)
}

// checkInvariants validates structural R*-tree invariants: entry counts,
// uniform leaf level, MBR containment and tightness.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(nd *node, isRoot bool) int
	walk = func(nd *node, isRoot bool) int {
		if len(nd.entries) > tr.max {
			t.Fatalf("node exceeds max entries: %d > %d", len(nd.entries), tr.max)
		}
		if !isRoot && len(nd.entries) < tr.min {
			t.Fatalf("non-root node underflows: %d < %d (level %d)", len(nd.entries), tr.min, nd.level)
		}
		count := 0
		for _, e := range nd.entries {
			if nd.level == 0 {
				if e.child != nil {
					t.Fatal("leaf entry with child")
				}
				count++
				continue
			}
			if e.child == nil {
				t.Fatal("internal entry without child")
			}
			if e.child.level != nd.level-1 {
				t.Fatalf("child level %d under node level %d", e.child.level, nd.level)
			}
			lo, hi := nodeMBR(e.child)
			for d := range lo {
				if e.lo[d] != lo[d] || e.hi[d] != hi[d] {
					t.Fatalf("stored MBR not tight: [%v,%v] vs computed [%v,%v]", e.lo, e.hi, lo, hi)
				}
			}
			count += walk(e.child, false)
		}
		return count
	}
	if tr.size == 0 {
		return
	}
	if got := walk(tr.root, true); got != tr.size {
		t.Fatalf("tree holds %d points, size says %d", got, tr.size)
	}
}

func TestInvariantsAfterInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, maxE := range []int{4, 9, 16, 28} {
		for _, dims := range []int{2, 4} {
			pts := randomData(rng, 800, dims)
			tr := buildTree(t, pts, maxE)
			checkInvariants(t, tr)
			if tr.Len() != 800 {
				t.Fatalf("Len = %d, want 800", tr.Len())
			}
		}
	}
}

// TestWideCoordinates builds over coordinates whose box areas overflow to
// +Inf (and area enlargements to NaN): the subtree and split choices must
// still pick an entry, and the tree must stay valid and complete.
func TestWideCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := randomData(rng, 800, 4)
	for i, p := range pts {
		for d := range p {
			p[d] = (2*p[d] - 1) * 1e150
		}
		if i%7 == 0 {
			p[i%4] = 1e150
		}
	}
	tr := buildTree(t, pts, 9)
	checkInvariants(t, tr)
	n := 0
	all := []float64{-1e150, -1e150, -1e150, -1e150}
	tr.SearchRange(all, []float64{1e150, 1e150, 1e150, 1e150}, func([]float64, int32) bool { n++; return true })
	if n != len(pts) {
		t.Fatalf("range over everything found %d of %d points", n, len(pts))
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := randomData(rng, 1500, 3)
	tr := buildTree(t, pts, 12)
	for trial := 0; trial < 50; trial++ {
		lo := make([]float64, 3)
		hi := make([]float64, 3)
		for d := range lo {
			a, b := rng.Float64(), rng.Float64()
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
		}
		want := map[int32]bool{}
		for i, p := range pts {
			if containsPoint(lo, hi, p) {
				want[int32(i)] = true
			}
		}
		got := map[int32]bool{}
		tr.SearchRange(lo, hi, func(_ []float64, id int32) bool {
			got[id] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: range returned %d, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestRangeSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := randomData(rng, 200, 2)
	tr := buildTree(t, pts, 8)
	count := 0
	tr.SearchRange([]float64{0, 0}, []float64{1, 1}, func(_ []float64, _ int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestDeleteAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := randomData(rng, 600, 2)
	tr := buildTree(t, pts, 8)
	perm := rng.Perm(len(pts))
	for i, pi := range perm {
		if !tr.Delete(pts[pi], int32(pi)) {
			t.Fatalf("Delete point %d returned false", pi)
		}
		if tr.Len() != len(pts)-i-1 {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(pts)-i-1)
		}
		if i%100 == 0 {
			checkInvariants(t, tr)
		}
	}
	checkInvariants(t, tr)
	if tr.Delete(pts[0], 0) {
		t.Fatal("delete from empty tree returned true")
	}
}

func TestDeleteUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := randomData(rng, 100, 2)
	tr := buildTree(t, pts, 8)
	if tr.Delete([]float64{-5, -5}, 3) {
		t.Fatal("deleted a point outside the tree")
	}
	if tr.Delete(pts[3], 9999) {
		t.Fatal("deleted with mismatched id")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len changed to %d", tr.Len())
	}
}

func TestMixedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tr := New(2, 6)
	live := map[int32][]float64{}
	next := int32(0)
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			var victim int32
			for id := range live {
				victim = id
				break
			}
			if !tr.Delete(live[victim], victim) {
				t.Fatalf("step %d: delete failed", step)
			}
			delete(live, victim)
		} else {
			p := []float64{rng.Float64(), rng.Float64()}
			if err := tr.Insert(p, next); err != nil {
				t.Fatal(err)
			}
			live[next] = p
			next++
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	checkInvariants(t, tr)
	// Every live point findable.
	for id, p := range live {
		found := false
		tr.SearchRange(p, p, func(_ []float64, got int32) bool {
			if got == id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("live point %d not found after churn", id)
		}
	}
}

// TestBestFirstEmitsInScoreOrder uses a linear scoring function with its
// exact MBR upper bound and verifies global emission order and completeness.
func TestBestFirstEmitsInScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pts := randomData(rng, 1000, 2)
	tr := buildTree(t, pts, 10)
	// score = 2x − 3y; admissible bound: 2hi[0] − 3lo[1].
	upper := func(lo, hi []float64) float64 { return 2*hi[0] - 3*lo[1] }
	bf := tr.BestFirst(upper)
	var got []float64
	for {
		_, _, s, ok := bf.Next()
		if !ok {
			break
		}
		got = append(got, s)
	}
	if len(got) != len(pts) {
		t.Fatalf("best-first emitted %d points, want %d", len(got), len(pts))
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = 2*p[0] - 3*p[1]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("emission %d: score %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBestFirstEmptyTree(t *testing.T) {
	tr := New(2, 8)
	bf := tr.BestFirst(func(lo, hi []float64) float64 { return 0 })
	if _, _, _, ok := bf.Next(); ok {
		t.Fatal("empty tree emitted a point")
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(2, 6)
	p := []float64{0.5, 0.5}
	for i := int32(0); i < 50; i++ {
		if err := tr.Insert([]float64{0.5, 0.5}, i); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
	count := 0
	tr.SearchRange(p, p, func(_ []float64, _ int32) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("found %d duplicates, want 50", count)
	}
	for i := int32(0); i < 50; i++ {
		if !tr.Delete([]float64{0.5, 0.5}, i) {
			t.Fatalf("failed to delete duplicate %d", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
}
