package topk

import (
	"math"
	"sync"
)

// sentry is a best-first stream entry, one of:
//
//   - an internal subtree (nd != nil, !nd.leaf()) under an admissible
//     blended bound key;
//   - a leaf cursor (nd != nil, nd.leaf()): mask marks the points already
//     emitted or filtered out, and key bounds the best remaining point —
//     exact after the first scan, the stored node bound before it;
//   - a concrete point (nd == nil) with its exact key — used for the
//     separating-path leaf and for oversized duplicate-x leaves whose
//     occupancy exceeds the 64-bit mask. The mask field doubles as the
//     point's index into the owning stream's pts scratch: a point entry
//     needs no mask and a leaf cursor no index, so the union keeps the
//     sentry at three words.
//
// Leaf cursors are the reason the query path stays cheap: a leaf of 16
// points costs one heap entry and O(LeafCap) scans instead of 16 heap
// pushes.
type sentry struct {
	key  float64
	nd   *node
	mask uint64
}

// heapPay is the non-key part of a sentry; the heap stores keys and
// payloads in parallel arrays so sifts compare through a densely packed
// float column (four children's keys share a cache line) and move the
// two-word payload only on an actual swap.
type heapPay struct {
	nd   *node
	mask uint64
}

// sheap is a 4-ary max-heap over sentries specialized for the query hot
// path: the comparison is a direct float compare (ascending streams negate
// their keys), the wide fan-out halves sift depth for the pop-heavy
// best-first workload, and the struct-of-arrays layout keeps sift compares
// inside the key column.
type sheap struct {
	keys []float64
	pay  []heapPay
	box  *sheapArrays // pooled backing arrays; kept so release never re-boxes
}

// sheapArrays is the pooled pair of backing arrays.
type sheapArrays struct {
	keys []float64
	pay  []heapPay
}

// sentryPool recycles heap backing arrays across queries: the four stream
// heaps of a merge grow to thousands of entries per query, and reusing their
// arrays removes the dominant per-query allocation. Entries are boxed array
// pairs owned by the sheap between acquire and release, so the round trip
// itself allocates nothing.
var sentryPool = sync.Pool{
	New: func() any {
		return &sheapArrays{
			keys: make([]float64, 0, 256),
			pay:  make([]heapPay, 0, 256),
		}
	},
}

func (h *sheap) acquire(capacity int) {
	if h.box == nil {
		h.box = sentryPool.Get().(*sheapArrays)
	}
	h.keys = h.box.keys[:0]
	h.pay = h.box.pay[:0]
	if cap(h.keys) < capacity {
		h.keys = make([]float64, 0, capacity)
		h.pay = make([]heapPay, 0, capacity)
	}
}

func (h *sheap) release() {
	if h.box == nil {
		return
	}
	h.box.keys = h.keys[:0] // donate the (possibly re-grown) arrays back
	h.box.pay = h.pay[:0]
	sentryPool.Put(h.box)
	h.box, h.keys, h.pay = nil, nil, nil
}

func (h *sheap) len() int { return len(h.keys) }

// top returns the maximum entry without removing it; callers guard with len.
func (h *sheap) top() sentry {
	return sentry{key: h.keys[0], nd: h.pay[0].nd, mask: h.pay[0].mask}
}

// secondKey returns the best key excluding the root — in a max-heap
// necessarily among the root's (up to four) children — or −Inf on a
// single-entry heap. It equals the root's key after popping the root, at a
// quarter of the cost.
func (h *sheap) secondKey() float64 {
	n := len(h.keys)
	if n > 5 {
		n = 5
	}
	best := math.Inf(-1)
	for c := 1; c < n; c++ {
		if h.keys[c] > best {
			best = h.keys[c]
		}
	}
	return best
}

// add appends an entry without restoring heap order; callers must finish the
// bulk load with init. Paired with init it turns the O(n log n) push-per-seed
// stream construction into an O(n) heapify.
func (h *sheap) add(e sentry) {
	h.keys = append(h.keys, e.key)
	h.pay = append(h.pay, heapPay{nd: e.nd, mask: e.mask})
}

// init establishes heap order over the whole array (Floyd heapify): sift
// down every internal node from the last parent to the root.
func (h *sheap) init() {
	n := len(h.keys)
	if n < 2 {
		return
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

// pushAll bulk-inserts entries — the leaf-spill path for oversized
// duplicate-x leaves whose occupancy exceeds the 64-bit cursor mask. When
// the batch rivals the heap's size a whole-array heapify is cheaper than
// sifting each entry; small batches sift individually.
func (h *sheap) pushAll(es []sentry) {
	if len(es) == 0 {
		return
	}
	if len(es) >= len(h.keys)/2 {
		for _, e := range es {
			h.add(e)
		}
		h.init()
		return
	}
	for _, e := range es {
		h.push(e)
	}
}

func (h *sheap) push(e sentry) {
	h.add(e)
	i := len(h.keys) - 1
	k := h.keys[i]
	for i > 0 {
		parent := (i - 1) / 4
		if h.keys[parent] >= k {
			break
		}
		h.keys[i], h.pay[i] = h.keys[parent], h.pay[parent]
		i = parent
	}
	h.keys[i] = k
	h.pay[i] = heapPay{nd: e.nd, mask: e.mask}
}

// replaceTop overwrites the root in place and restores order with a single
// sift-down — the fused pop+push the leaf revisit cycle uses, saving one
// full sift pair per requeue.
func (h *sheap) replaceTop(e sentry) {
	h.keys[0] = e.key
	h.pay[0] = heapPay{nd: e.nd, mask: e.mask}
	h.down(0)
}

// dropTop removes the root without returning it.
func (h *sheap) dropTop() {
	last := len(h.keys) - 1
	h.keys[0], h.pay[0] = h.keys[last], h.pay[last]
	h.pay[last] = heapPay{}
	h.keys = h.keys[:last]
	h.pay = h.pay[:last]
	if last > 1 {
		h.down(0)
	}
}

// down sifts entry i toward the leaves hole-style: the descending entry
// rides in registers while winning children shift up, and it is stored once
// at its final slot instead of being swapped at every level.
func (h *sheap) down(i int) {
	n := len(h.keys)
	keys := h.keys
	k := keys[i]
	p := h.pay[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		var largest int
		var lk float64
		if end := first + 4; end <= n {
			// Interior node: pairwise max tree over the four children. Each
			// step is a compare plus two conditional moves — no data-dependent
			// branch for the (essentially random) winner pattern.
			a, ka := first, keys[first]
			if kb := keys[first+1]; kb > ka {
				a, ka = first+1, kb
			}
			b, kb := first+2, keys[first+2]
			if kc := keys[first+3]; kc > kb {
				b, kb = first+3, kc
			}
			largest, lk = a, ka
			if kb > ka {
				largest, lk = b, kb
			}
		} else {
			largest, lk = first, keys[first]
			for c := first + 1; c < n; c++ {
				if keys[c] > lk {
					largest, lk = c, keys[c]
				}
			}
		}
		if k >= lk {
			break
		}
		keys[i] = lk
		h.pay[i] = h.pay[largest]
		i = largest
	}
	if i != start {
		keys[i] = k
		h.pay[i] = p
	}
}
