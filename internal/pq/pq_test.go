package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdersAscending(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		h.Push(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	for want := 0; want < len(in); want++ {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestHeapPeekDoesNotRemove(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	h.Push(2)
	h.Push(1)
	if h.Peek() != 1 || h.Len() != 2 {
		t.Fatalf("Peek=%d Len=%d, want 1 and 2", h.Peek(), h.Len())
	}
}

func TestHeapReplaceTop(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	for _, v := range []int{4, 2, 6} {
		h.Push(v)
	}
	h.ReplaceTop(5) // replaces 2
	got := []int{h.Pop(), h.Pop(), h.Pop()}
	want := []int{4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after ReplaceTop, pops = %v, want %v", got, want)
		}
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	h.Push(1)
	h.Push(2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	h.Push(3)
	if h.Peek() != 3 {
		t.Fatalf("Peek after Reset+Push = %d, want 3", h.Peek())
	}
}

func TestHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		vals := make([]float64, n)
		h := NewHeap(func(a, b float64) bool { return a < b })
		for i := range vals {
			vals[i] = rng.NormFloat64()
			h.Push(vals[i])
		}
		sort.Float64s(vals)
		for i, want := range vals {
			if got := h.Pop(); got != want {
				t.Fatalf("trial %d pop %d = %v, want %v", trial, i, got, want)
			}
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHeap(func(a, b int) bool { return a < b })
	var mirror []int
	for op := 0; op < 2000; op++ {
		if h.Len() == 0 || rng.Intn(2) == 0 {
			v := rng.Intn(1000)
			h.Push(v)
			mirror = append(mirror, v)
			continue
		}
		sort.Ints(mirror)
		want := mirror[0]
		mirror = mirror[1:]
		if got := h.Pop(); got != want {
			t.Fatalf("op %d: Pop = %d, want %d", op, got, want)
		}
	}
}

func TestTopKPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK[int](0)
}

func TestTopKKeepsBestK(t *testing.T) {
	tk := NewTopK[string](3)
	tk.Add("a", 1)
	tk.Add("b", 5)
	tk.Add("c", 3)
	tk.Add("d", 4)
	tk.Add("e", 0)
	res := tk.Results()
	if len(res) != 3 {
		t.Fatalf("len(Results) = %d, want 3", len(res))
	}
	wantItems := []string{"b", "d", "c"}
	wantScores := []float64{5, 4, 3}
	for i := range res {
		if res[i].Item != wantItems[i] || res[i].Score != wantScores[i] {
			t.Fatalf("Results[%d] = %+v, want {%s %v}", i, res[i], wantItems[i], wantScores[i])
		}
	}
}

func TestTopKTieBreaksByInsertionOrder(t *testing.T) {
	tk := NewTopK[int](2)
	tk.Add(1, 7)
	tk.Add(2, 7)
	tk.Add(3, 7) // same score, later: must NOT displace 1 or 2
	res := tk.Results()
	if res[0].Item != 1 || res[1].Item != 2 {
		t.Fatalf("tie handling wrong: got %+v", res)
	}
}

func TestTopKThreshold(t *testing.T) {
	tk := NewTopK[int](2)
	if got := tk.Threshold(); !math.IsInf(got, -1) {
		t.Fatalf("empty Threshold = %v, want -Inf", got)
	}
	tk.Add(1, 10)
	if got := tk.Threshold(); !math.IsInf(got, -1) {
		t.Fatalf("underfull Threshold = %v, want -Inf", got)
	}
	tk.Add(2, 4)
	if got := tk.Threshold(); got != 4 {
		t.Fatalf("Threshold = %v, want 4", got)
	}
	if !tk.Full() {
		t.Fatal("Full = false, want true")
	}
}

func TestTopKMatchesSortQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	property := func(scores []float64, kSeed uint8) bool {
		if len(scores) == 0 {
			return true
		}
		for i, s := range scores {
			if math.IsNaN(s) {
				scores[i] = 0
			}
		}
		k := int(kSeed)%len(scores) + 1
		tk := NewTopK[int](k)
		for i, s := range scores {
			tk.Add(i, s)
		}
		want := make([]float64, len(scores))
		copy(want, scores)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		res := tk.Results()
		if len(res) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if res[i].Score != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	h := NewHeap(func(a, b float64) bool { return a < b })
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(vals[i%1024])
		if h.Len() > 512 {
			h.Pop()
		}
	}
}

func BenchmarkTopKAdd(b *testing.B) {
	tk := NewTopK[int](100)
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(i, vals[i%4096])
	}
}
