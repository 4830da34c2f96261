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
// Admission is gated by a HeavyKeeper top-k sketch (sketch.go): every
// lookup feeds the sketch, and a computed answer is stored only while its
// key ranks among the sketch's current heavy hitters. The sketch's heap
// expels a key only to admit a hotter one, and expulsion evicts the key's
// cache entry via the onEvict callback — so the cache is always a subset
// of the tracked heavy hitters and its size never exceeds the configured
// capacity. A one-off query cannot displace an established hot entry.
//
// The hit path is allocation-free: key buffers come from a pool, hashing is
// inline FNV-1a, the map lookup uses the compiler's []byte→string
// no-copy conversion, and the cached body is written to the response as-is.
// A single mutex guards map and sketch together; the critical section is a
// few hundred nanoseconds, far below the cost of the engine query a hit
// saves, and the common contention case (many goroutines hitting the same
// hot key) is exactly the case the cache exists for.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	sketch  *heavyKeeper
	keyPool sync.Pool // *[]byte
}

// cacheEntry is one cached answer: the exact response body writeJSON would
// produce (trailing newline included), valid only at its version pair.
type cacheEntry struct {
	gen   uint64
	epoch uint64
	body  []byte
}

func newResultCache(capacity int) *resultCache {
	c := &resultCache{entries: make(map[string]cacheEntry, capacity)}
	// The eviction callback runs inside sketch.add/offer, which only ever
	// executes under c.mu — no extra locking needed.
	c.sketch = newHeavyKeeper(capacity, func(key string) { delete(c.entries, key) })
	return c
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

// get looks the key up at the given version pair. Every lookup — hit or
// miss — feeds the admission sketch, so frequency is measured on demand,
// not on fill. An entry whose version disagrees with (gen, epoch) is
// deleted and reported as a miss: served bytes are always exactly what the
// current index would answer.
func (c *resultCache) get(key []byte, gen, epoch uint64) ([]byte, bool) {
	h := hashKey(key)
	c.mu.Lock()
	c.sketch.add(h, key)
	e, ok := c.entries[string(key)]
	if ok && (e.gen != gen || e.epoch != epoch) {
		delete(c.entries, string(key))
		ok = false
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.body, true
}

// put offers a freshly computed body for caching. It is admitted only while
// the key currently ranks among the sketch's heavy hitters; the return
// value reports admission (false feeds the rejection counter). The caller
// must have verified that gen and epoch still describe the index the body
// was computed from — see handleTopK for the protocol.
func (c *resultCache) put(key []byte, gen, epoch uint64, body []byte) bool {
	h := hashKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sketch.hot(h) {
		return false
	}
	c.entries[string(key)] = cacheEntry{gen: gen, epoch: epoch, body: body}
	return true
}

// len reports the resident entry count (for /statz).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// hashKey is inline FNV-1a 64 — no hash.Hash64 interface, no allocation.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// canonNaNBits is the single bit pattern every NaN canonicalizes to.
// decodeQuery rejects NaN before any key is built, so this is defense in
// depth: even a NaN smuggled through a future code path cannot mint
// per-bit-pattern distinct keys (NaN has 2^52-ish encodings) or corrupt
// the sketch.
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
