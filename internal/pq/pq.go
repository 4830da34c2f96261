// Package pq provides the generic priority-queue machinery shared by the
// index structures and baseline engines: a binary heap parameterized by an
// ordering function and a bounded top-k collector.
//
// The standard library's container/heap forces an interface-based API with
// per-operation allocations; the index structures in this module sit on hot
// query paths, so we use a small generic heap instead.
package pq

// Heap is a binary heap ordered by a user-supplied less function. The zero
// value is not usable; construct with NewHeap.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less (the minimum element, per
// less, is at the top).
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds an element to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the top element without removing it. It panics on an empty
// heap; callers guard with Len.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Pop removes and returns the top element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references held by pointer-ish payloads
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// ReplaceTop replaces the top element with x and restores heap order. It is
// equivalent to but cheaper than Pop followed by Push.
func (h *Heap[T]) ReplaceTop(x T) {
	h.items[0] = x
	h.down(0)
}

// Reset removes all elements but keeps the allocated capacity.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
