package serve

import (
	"encoding/binary"
	"math"
	"sync"

	sdquery "repro"
)

// resultCache is the hot-query result cache between the /v1/topk admission
// layer and the engine. It stores fully marshaled response bodies keyed by
// the canonical binary encoding of the query, versioned by the pair
//
//	(box generation, index epoch)
//
// — the generation changes on every /v1/admin/swap (a different Index value
// may restart its epoch counter), and the epoch changes on every insert,
// remove, and compaction inside one index. There is no explicit
// invalidation anywhere: a mutation publishes a new epoch and every older
// entry silently stops matching. Lookups drop entries whose version pair
// disagrees with the current one, so stale bodies are reclaimed by the
// traffic that touches them.
//
// What stays resident is decided by two FIFO rings (S3-FIFO without its
// ghost queue). Every computed answer enters the probation ring, which holds
// a tenth of the capacity; a hit bumps the entry's use count. When probation
// overflows, its oldest entry moves to the main ring, its count cleared, if
// it was hit since it entered (or the main ring still has a free slot, so a
// cold cache fills at once) and is dropped otherwise, so a one-off query
// never displaces an entry that has been hit. The main ring holds the rest
// of the capacity and evicts CLOCK-style: its hand decrements and re-queues
// entries hit since it last passed and evicts the first one whose count is
// spent. The map is the authority on what is resident: a ring slot whose
// entry is no longer the map's entry for its key (a stale version dropped
// by get, possibly stored again since) is discarded when the ring reaches
// it. Every map entry sits in exactly one slot, so the resident count never
// exceeds the capacity.
//
// The hit path is allocation-free: key buffers come from a pool, the map
// lookup uses the compiler's []byte→string no-copy conversion, and the
// cached body is written to the response as-is. A single mutex guards the
// map and both rings; the critical section is a map lookup and a counter
// bump, far below the cost of the engine query a hit saves, and the common
// contention case (many goroutines hitting the same hot key) is exactly the
// case the cache exists for.
type resultCache struct {
	mu        sync.Mutex
	entries   map[string]*cacheEntry
	probation ring
	main      ring
	keyPool   sync.Pool // *[]byte
}

// cacheEntry is one cached answer: the exact response body writeJSON would
// produce (trailing newline included), valid only at its version pair.
type cacheEntry struct {
	key   string
	gen   uint64
	epoch uint64
	body  []byte
	uses  uint8 // hits in its current ring, at most maxUses
}

// maxUses caps an entry's use count. Each pass of the main ring's hand
// spends one, so a burst of hits buys at most that many passes.
const maxUses = 3

func newResultCache(capacity int) *resultCache {
	probation := max(capacity/10, 1)
	return &resultCache{
		entries:   make(map[string]*cacheEntry, capacity),
		probation: ring{slots: make([]*cacheEntry, probation)},
		main:      ring{slots: make([]*cacheEntry, capacity-probation)},
	}
}

// ring is a fixed-size FIFO of cache entries.
type ring struct {
	slots []*cacheEntry
	head  int // oldest slot
	n     int
}

func (r *ring) full() bool { return r.n == len(r.slots) }

func (r *ring) push(e *cacheEntry) {
	r.slots[(r.head+r.n)%len(r.slots)] = e
	r.n++
}

func (r *ring) pop() *cacheEntry {
	e := r.slots[r.head]
	r.slots[r.head] = nil
	r.head = (r.head + 1) % len(r.slots)
	r.n--
	return e
}

// resident reports whether e is still the map's entry for its key.
func (c *resultCache) resident(e *cacheEntry) bool { return c.entries[e.key] == e }

// promote moves an entry leaving probation into the main ring, first
// making room there: the hand re-queues entries with uses left (spending
// one), discards slots whose entry is no longer resident, and evicts the
// first resident entry with none. Without a main ring (capacity 1) the
// entry is dropped.
func (c *resultCache) promote(e *cacheEntry) {
	for c.main.full() {
		if c.main.n == 0 {
			delete(c.entries, e.key)
			return
		}
		v := c.main.pop()
		switch {
		case !c.resident(v):
		case v.uses > 0:
			v.uses--
			c.main.push(v)
		default:
			delete(c.entries, v.key)
		}
	}
	c.main.push(e)
}

// getBuf and putBuf recycle key-encoding buffers so the hit path never
// allocates. Callers must restore the (possibly regrown) slice before
// returning it.
func (c *resultCache) getBuf() *[]byte {
	if b, ok := c.keyPool.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 0, 256)
	return &b
}

func (c *resultCache) putBuf(b *[]byte) { c.keyPool.Put(b) }

// get looks the key up at the given version pair; a hit bumps the entry's
// use count. An entry whose version disagrees with (gen, epoch) is deleted
// and reported as a miss: served bytes are always exactly what the current
// index would answer. Its ring slot stays behind until the ring reaches it.
func (c *resultCache) get(key []byte, gen, epoch uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(key)]
	if !ok {
		return nil, false
	}
	if e.gen != gen || e.epoch != epoch {
		delete(c.entries, string(key))
		return nil, false
	}
	if e.uses < maxUses {
		e.uses++
	}
	return e.body, true
}

// put stores a freshly computed body. It never refuses: a key already
// resident takes the new version in place, and a new one enters probation,
// pushing out probation's oldest entry if the ring is full. The caller must
// have verified that gen and epoch still describe the index the body was
// computed from — see handleTopK for the protocol.
func (c *resultCache) put(key []byte, gen, epoch uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[string(key)]; ok {
		e.gen, e.epoch, e.body = gen, epoch, body
		return
	}
	if c.probation.full() {
		switch v := c.probation.pop(); {
		case !c.resident(v):
		case v.uses > 0 || !c.main.full():
			v.uses = 0 // the main ring counts only hits made there
			c.promote(v)
		default:
			delete(c.entries, v.key)
		}
	}
	e := &cacheEntry{key: string(key), gen: gen, epoch: epoch, body: body}
	c.entries[e.key] = e
	c.probation.push(e)
}

// len reports the resident entry count (for /statz).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// canonNaNBits is the single bit pattern every NaN canonicalizes to.
// decodeQuery rejects NaN before any key is built, so this is defense in
// depth: even a NaN smuggled through a future code path cannot mint
// per-bit-pattern distinct keys (NaN has 2^52-ish encodings).
var canonNaNBits = math.Float64bits(math.NaN())

// canonFloatBits maps a float to the bit pattern its cache key uses. Zeros
// collapse (+0.0 == -0.0 numerically, and every scoring path treats them
// identically, so {-0.0} and {0.0} must share one cache entry); NaNs
// collapse to canonNaNBits. Everything else keys on its exact bits.
func canonFloatBits(v float64) uint64 {
	if v == 0 {
		return 0 // math.Float64bits(+0.0); catches -0.0 too, since -0.0 == 0
	}
	if v != v {
		return canonNaNBits
	}
	return math.Float64bits(v)
}

// oneBits is Float64bits(1.0), the encoding of a defaulted weight.
var oneBits = math.Float64bits(1)

// appendQueryKey appends q's canonical cache key to dst. The layout is
// fixed-width given the dimensionality — dims, k, one role byte per
// dimension, then canonicalized point and weight bits — so no separators
// are needed and two distinct queries can never encode to the same bytes.
// Nil weights encode as all ones: the engine treats them identically, so
// {"weights":null} and {"weights":[1,1,...]} share one entry. decodeQuery
// has already validated everything else (lengths match, floats finite), so
// encoding is branch-light appends.
func appendQueryKey(dst []byte, q sdquery.Query) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.Point)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.K))
	for _, r := range q.Roles {
		dst = append(dst, byte(r))
	}
	for _, v := range q.Point {
		dst = binary.LittleEndian.AppendUint64(dst, canonFloatBits(v))
	}
	if q.Weights == nil {
		for range q.Point {
			dst = binary.LittleEndian.AppendUint64(dst, oneBits)
		}
		return dst
	}
	for _, w := range q.Weights {
		dst = binary.LittleEndian.AppendUint64(dst, canonFloatBits(w))
	}
	return dst
}
