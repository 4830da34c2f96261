package pq

import (
	"math"
	"sort"
)

// Scored pairs an arbitrary payload with the score that ranks it.
type Scored[T any] struct {
	Item  T
	Score float64
}

// TopK collects the k highest-scoring items seen so far. Ties on score are
// broken by insertion order (earlier wins), which keeps engine outputs
// deterministic for fixed inputs; NewTopKOrdered substitutes an explicit
// tie order that also makes the output independent of insertion order. The
// zero value is not usable; construct with NewTopK or NewTopKOrdered.
type TopK[T any] struct {
	k        int
	seq      int
	outranks func(a, b T) bool // nil: fall back to insertion order
	heap     *Heap[entry[T]]
}

type entry[T any] struct {
	item  T
	score float64
	seq   int
}

// NewTopK returns a collector for the k best items. k must be positive.
func NewTopK[T any](k int) *TopK[T] {
	return NewTopKOrdered[T](k, nil)
}

// NewTopKOrdered returns a collector whose score ties are broken by
// outranks: among equal scores, an item for which outranks(new, kept) holds
// displaces the kept one, and Results orders outranking items first. When
// outranks is a strict total order over the items offered (engines pass
// "smaller dataset ID wins"), the collected set and its order are fully
// determined by the input multiset, independent of insertion order — the
// property the cross-engine differential harness relies on. A nil outranks
// falls back to insertion order (NewTopK's behavior).
func NewTopKOrdered[T any](k int, outranks func(a, b T) bool) *TopK[T] {
	if k <= 0 {
		panic("pq: TopK requires k > 0")
	}
	t := &TopK[T]{k: k, outranks: outranks}
	// Min-heap on strength: the weakest kept item is on top. Among equal
	// scores the outranked item (or, without a tie order, the later
	// arrival) is the weaker one.
	less := func(a, b entry[T]) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		if outranks != nil {
			if outranks(b.item, a.item) {
				return true
			}
			if outranks(a.item, b.item) {
				return false
			}
		}
		return a.seq > b.seq
	}
	// No preallocation: k may exceed the items ever offered by any margin
	// (K = 1<<40 over a thousand rows), so the heap grows by append.
	t.heap = NewHeap(less)
	return t
}

// Reset empties the collector and re-arms it for k items, keeping the
// allocated heap capacity and the tie order. It lets query hot paths pool
// one collector per query context instead of allocating one per query.
func (t *TopK[T]) Reset(k int) {
	if k <= 0 {
		panic("pq: TopK requires k > 0")
	}
	t.k = k
	t.seq = 0
	t.heap.Reset()
}

// K returns the collector's capacity.
func (t *TopK[T]) K() int { return t.k }

// Len returns the number of items currently kept.
func (t *TopK[T]) Len() int { return t.heap.Len() }

// Add offers an item; it is kept only if it ranks in the current top k.
// It reports whether the item was kept.
func (t *TopK[T]) Add(item T, score float64) bool {
	e := entry[T]{item: item, score: score, seq: t.seq}
	t.seq++
	if t.heap.Len() < t.k {
		t.heap.Push(e)
		return true
	}
	weakest := t.heap.Peek()
	if weakest.score > e.score {
		return false
	}
	if weakest.score == e.score {
		if t.outranks == nil || !t.outranks(e.item, weakest.item) {
			return false
		}
	}
	t.heap.ReplaceTop(e)
	return true
}

// Threshold returns the score of the weakest kept item, or negative infinity
// while fewer than k items are kept. Once the collection is full an unseen
// item must strictly beat this value to enter — or, under NewTopKOrdered,
// tie it and outrank the weakest kept item.
func (t *TopK[T]) Threshold() float64 {
	if t.heap.Len() < t.k {
		return math.Inf(-1)
	}
	return t.heap.Peek().score
}

// Full reports whether k items have been collected.
func (t *TopK[T]) Full() bool { return t.heap.Len() == t.k }

// DrainInto empties the collector into dst (appended), ordered best-first
// exactly as Results orders them, and leaves the collector empty. Unlike
// Results it performs no sort and — given sufficient capacity in dst — no
// allocation: the heap's weakest-first pop order is the exact reverse of the
// result order, because the heap's less function is the strict total order
// Results sorts by (score, then outranks, then sequence).
func (t *TopK[T]) DrainInto(dst []Scored[T]) []Scored[T] {
	n := t.heap.Len()
	base := len(dst)
	var zero Scored[T]
	for i := 0; i < n; i++ {
		dst = append(dst, zero)
	}
	for i := n - 1; i >= 0; i-- {
		e := t.heap.Pop()
		dst[base+i] = Scored[T]{Item: e.item, Score: e.score}
	}
	return dst
}

// Results returns the kept items ordered best-first. The collector remains
// usable afterwards.
func (t *TopK[T]) Results() []Scored[T] {
	out := make([]Scored[T], 0, t.heap.Len())
	entries := make([]entry[T], len(t.heap.items))
	copy(entries, t.heap.items)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score > entries[j].score
		}
		if t.outranks != nil {
			if t.outranks(entries[i].item, entries[j].item) {
				return true
			}
			if t.outranks(entries[j].item, entries[i].item) {
				return false
			}
		}
		return entries[i].seq < entries[j].seq
	})
	for _, e := range entries {
		out = append(out, Scored[T]{Item: e.item, Score: e.score})
	}
	return out
}
