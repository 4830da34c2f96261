package router

import "container/heap"

// Exact k-way merge of per-partition top-k lists. Partitions hold disjoint
// rows and each list arrives already ordered by the serving nodes' global
// order — score descending, ID ascending on ties — so the merge is a
// classic tournament: a heap of list heads, pop the best, advance that
// list. The result is exactly the order a single node over the union would
// produce, which is what makes a router response byte-identical to the
// single-node oracle.

// wireResult mirrors the serving layer's result encoding. Scores decoded
// from a node's JSON re-encode to identical bytes (encoding/json's
// shortest-roundtrip float formatting is deterministic), so merging through
// this struct preserves byte-identity end to end.
type wireResult struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// resultLess is the global result order: score descending, ID ascending.
func resultLess(a, b wireResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// mergeHead is one list's cursor in the tournament heap.
type mergeHead struct {
	list []wireResult
	pos  int
}

type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return resultLess(h[i].list[h[i].pos], h[j].list[h[j].pos])
}
func (h mergeHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)     { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// mergeTopK merges per-partition top-k lists into the global top-k. Lists
// must each be sorted by resultLess (they are — nodes emit that order); the
// output is the best k of their union in the same order. Returns an empty
// (non-nil) slice when k rows don't exist, matching node behavior of
// always encoding a "results" array. The output is sized by the rows
// present, never by k alone: k comes from the client, and a node accepts
// any k ≥ 1.
func mergeTopK(lists [][]wireResult, k int) []wireResult {
	h := make(mergeHeap, 0, len(lists))
	rows := 0
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, mergeHead{list: l})
			rows += len(l)
		}
	}
	heap.Init(&h)
	out := make([]wireResult, 0, min(k, rows))
	for len(h) > 0 && len(out) < k {
		out = append(out, h[0].list[h[0].pos])
		if h[0].pos++; h[0].pos == len(h[0].list) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}
