package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	sdquery "repro"
)

func cacheQuery() sdquery.Query {
	return sdquery.Query{
		Point:   []float64{0.25, 0.5, 0.75, 1.0},
		K:       5,
		Roles:   testRoles(),
		Weights: []float64{1, 0.5, 0.25, 1},
	}
}

// TestCacheKeyCanonicalization pins the key-encoding equivalences: floats
// that compare equal must share a cache entry, and semantically identical
// defaulted weights must too, while every semantically distinct query gets
// a distinct key.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := cacheQuery()
	key := func(q sdquery.Query) []byte { return appendQueryKey(nil, q) }

	// -0.0 and +0.0 compare equal and score identically: one entry.
	negZero := cacheQuery()
	negZero.Point[0] = math.Copysign(0, -1)
	posZero := cacheQuery()
	posZero.Point[0] = 0
	if !bytes.Equal(key(negZero), key(posZero)) {
		t.Error("-0.0 and +0.0 points produced distinct cache keys")
	}
	negZeroW := cacheQuery()
	negZeroW.Weights[1] = math.Copysign(0, -1)
	posZeroW := cacheQuery()
	posZeroW.Weights[1] = 0
	if !bytes.Equal(key(negZeroW), key(posZeroW)) {
		t.Error("-0.0 and +0.0 weights produced distinct cache keys")
	}

	// Nil weights mean all-ones: same entry as explicit ones.
	nilW := cacheQuery()
	nilW.Weights = nil
	onesW := cacheQuery()
	onesW.Weights = []float64{1, 1, 1, 1}
	if !bytes.Equal(key(nilW), key(onesW)) {
		t.Error("nil weights and explicit all-ones weights produced distinct keys")
	}

	// NaN must not panic and must canonicalize to one pattern regardless of
	// payload bits (defense in depth; the decoder rejects NaN upstream).
	nanA := cacheQuery()
	nanA.Point[2] = math.NaN()
	nanB := cacheQuery()
	nanB.Point[2] = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // different NaN payload
	if !bytes.Equal(key(nanA), key(nanB)) {
		t.Error("two NaN bit patterns produced distinct cache keys")
	}

	// Distinct queries must produce distinct keys.
	variants := []func(*sdquery.Query){
		func(q *sdquery.Query) { q.K = 6 },
		func(q *sdquery.Query) { q.Point[3] = 0.9 },
		func(q *sdquery.Query) { q.Weights[0] = 0.9 },
		func(q *sdquery.Query) {
			q.Roles = append([]sdquery.Role(nil), q.Roles...)
			q.Roles[0] = sdquery.Attractive
		},
	}
	for i, mutate := range variants {
		q := cacheQuery()
		mutate(&q)
		if bytes.Equal(key(base), key(q)) {
			t.Errorf("variant %d produced the same key as the base query", i)
		}
	}
}

// TestCacheVersioning pins the implicit-invalidation contract: an entry is
// served only at the exact (gen, epoch) it was stored under; any other pair
// is a miss that also drops the stale entry.
func TestCacheVersioning(t *testing.T) {
	c := newResultCache(8)
	key := appendQueryKey(nil, cacheQuery())
	body := []byte(`{"results":[]}` + "\n")

	c.put(key, 1, 1, body)
	if got, ok := c.get(key, 1, 1); !ok || !bytes.Equal(got, body) {
		t.Fatal("exact-version lookup missed")
	}
	if _, ok := c.get(key, 1, 2); ok {
		t.Fatal("stale epoch served")
	}
	if _, ok := c.get(key, 1, 1); ok {
		t.Fatal("stale entry survived the mismatched lookup")
	}

	c.put(key, 2, 7, body)
	if _, ok := c.get(key, 3, 7); ok {
		t.Fatal("entry from an older generation served after a swap")
	}
}

// TestCacheStaleSlot: a key whose stale entry was dropped and that was then
// stored again keeps its new entry when the ring reaches the old slot.
func TestCacheStaleSlot(t *testing.T) {
	c := newResultCache(20) // probation 2, main 18
	body := []byte("x\n")
	for i := 0; i < 20; i++ { // fill both rings with entries hit once
		c.request(cacheKey(i), 1, 1, body)
		c.request(cacheKey(i), 1, 1, body)
	}
	key := cacheKey(100)
	c.put(key, 1, 1, body)
	if _, ok := c.get(key, 1, 2); ok {
		t.Fatal("stale epoch served")
	}
	c.put(key, 1, 2, body) // probation now holds the old slot, then the new one
	c.put(cacheKey(101), 1, 2, body)
	if _, ok := c.get(key, 1, 2); !ok {
		t.Fatal("the stored-again key was evicted through its stale slot")
	}
	checkCacheInvariants(t, c, 20)
}

// cacheKey builds a distinct synthetic cache key per logical key id.
func cacheKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// request is one lookup as handleTopK makes it: a miss stores the answer.
func (c *resultCache) request(key []byte, gen, epoch uint64, body []byte) bool {
	if _, ok := c.get(key, gen, epoch); ok {
		return true
	}
	c.put(key, gen, epoch, body)
	return false
}

// TestCacheAdmission pins scan resistance: once a hot set has been hit, a
// flood of one-off queries — each stored, since put never refuses — passes
// through probation without displacing any of it, while a newcomer that is
// hit in probation still earns a place in the main ring. A cold cache
// fills at once, and what filled it yields to the hot set.
func TestCacheAdmission(t *testing.T) {
	const capacity = 64
	c := newResultCache(capacity)
	body := []byte("x\n")
	for i := 0; i < capacity; i++ {
		c.put(cacheKey(3_000_000+i), 1, 1, body)
	}
	if n := c.len(); n != capacity {
		t.Fatalf("a cold cache kept %d of %d answers", n, capacity)
	}
	// Probation always holds the latest one-offs, so the hot set the cache
	// can keep through a scan is what the main ring holds.
	hot := len(c.main.slots)
	for i := 0; i < hot; i++ {
		c.request(cacheKey(i), 1, 1, body)
		for rep := 0; rep < 2; rep++ {
			if !c.request(cacheKey(i), 1, 1, body) {
				t.Fatalf("hot key %d missed right after it was stored", i)
			}
		}
	}
	for i := 0; i < 10_000; i++ {
		c.put(cacheKey(1_000_000+i), 1, 1, body)
		if n := c.len(); n > capacity {
			t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
		}
	}
	for i := 0; i < hot; i++ {
		if _, ok := c.get(cacheKey(i), 1, 1); !ok {
			t.Fatalf("hot key %d was displaced by one-off keys", i)
		}
	}

	newcomer := cacheKey(500)
	c.request(newcomer, 1, 1, body)
	c.request(newcomer, 1, 1, body)
	for i := 0; i < 10_000; i++ {
		c.put(cacheKey(2_000_000+i), 1, 1, body)
	}
	if _, ok := c.get(newcomer, 1, 1); !ok {
		t.Fatal("a key hit in probation did not move to the main ring")
	}
}

// checkCacheInvariants verifies the ring bookkeeping: every resident entry
// sits in exactly one ring slot, so the resident count is bounded by the
// capacity.
func checkCacheInvariants(t *testing.T, c *resultCache, capacity int) {
	t.Helper()
	if n := c.len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	seen := make(map[*cacheEntry]int, len(c.entries))
	for _, r := range []*ring{&c.probation, &c.main} {
		for i := 0; i < r.n; i++ {
			if e := r.slots[(r.head+i)%len(r.slots)]; c.resident(e) {
				seen[e]++
			}
		}
	}
	for key, e := range c.entries {
		if e.key != key {
			t.Fatalf("entry under %q carries key %q", key, e.key)
		}
		if seen[e] != 1 {
			t.Fatalf("resident entry %q sits in %d ring slots, want 1", key, seen[e])
		}
		if e.uses > maxUses {
			t.Fatalf("entry %q has use count %d, cap %d", key, e.uses, maxUses)
		}
	}
}

// TestCacheBoundedUnderChurn drives a seeded random mix of lookups, stores,
// re-stores of resident keys, stale-version lookups and version bumps, and
// checks after every operation that the resident count stays within the
// capacity, that ring slots and map agree, and that every hit serves the
// body stored for that key at the current version.
func TestCacheBoundedUnderChurn(t *testing.T) {
	for _, capacity := range []int{1, 10, 64} {
		c := newResultCache(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		epoch := uint64(1)
		bodyOf := func(k int, epoch uint64) []byte { return []byte(fmt.Sprintf("%d@%d\n", k, epoch)) }
		for op := 0; op < 100_000; op++ {
			k := rng.Intn(4 * capacity)
			key := cacheKey(k)
			switch r := rng.Intn(100); {
			case r < 60:
				if got, ok := c.get(key, 1, epoch); ok {
					if want := bodyOf(k, epoch); !bytes.Equal(got, want) {
						t.Fatalf("capacity %d op %d: key %d served %q, want %q", capacity, op, k, got, want)
					}
				} else {
					c.put(key, 1, epoch, bodyOf(k, epoch))
				}
			case r < 80:
				c.put(key, 1, epoch, bodyOf(k, epoch))
			case r < 98:
				if _, ok := c.get(key, 1, epoch+1); ok {
					t.Fatalf("capacity %d op %d: stale version served", capacity, op)
				}
			default:
				epoch++
			}
			checkCacheInvariants(t, c, capacity)
		}
	}
}

// TestCacheConcurrentUse runs lookups, stores and stale-version lookups from
// several goroutines at once (the race detector's case) and then checks the
// ring bookkeeping.
func TestCacheConcurrentUse(t *testing.T) {
	const capacity = 16
	c := newResultCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 5_000; op++ {
				key := cacheKey(rng.Intn(4 * capacity))
				if rng.Intn(10) == 0 {
					c.get(key, 1, 2)
					continue
				}
				c.request(key, 1, 1, []byte("x\n"))
			}
		}(int64(g))
	}
	wg.Wait()
	checkCacheInvariants(t, c, capacity)
}

// TestCacheZipfHitRate replays the traffic shape the cache is built for —
// independent Zipf(1.1) requests over four times as many queries as the
// capacity — and holds the hit rate close to the best any policy could do
// (keeping the capacity's most popular keys, ≈ 0.897 on this stream).
func TestCacheZipfHitRate(t *testing.T) {
	const capacity, keys = 1024, 4096
	c := newResultCache(capacity)
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, keys-1)
	keyOf := make([][]byte, keys)
	for i := range keyOf {
		keyOf[i] = cacheKey(i)
	}
	body := []byte("x\n")
	for i := 0; i < 50_000; i++ {
		c.request(keyOf[zipf.Uint64()], 1, 1, body)
	}
	hits := 0
	const measured = 200_000
	for i := 0; i < measured; i++ {
		if c.request(keyOf[zipf.Uint64()], 1, 1, body) {
			hits++
		}
	}
	rate := float64(hits) / measured
	t.Logf("hit rate %.4f", rate)
	if rate < 0.875 {
		t.Fatalf("hit rate %.4f on Zipf(1.1) traffic, want ≥ 0.875", rate)
	}
}

// TestCacheZeroAllocHit gates the fast path: once a key is resident, the
// full hit sequence — pooled key buffer, canonical encode, hash, lookup,
// version check — performs zero heap allocations. This is the property that
// lets a hot query skip the coalescer queue without becoming a GC tax.
func TestCacheZeroAllocHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	c := newResultCache(8)
	q := cacheQuery()
	kb := c.getBuf()
	key := appendQueryKey((*kb)[:0], q)
	c.put(key, 1, 1, []byte("body\n"))
	*kb = key
	c.putBuf(kb)

	allocs := testing.AllocsPerRun(200, func() {
		kb := c.getBuf()
		key := appendQueryKey((*kb)[:0], q)
		if _, ok := c.get(key, 1, 1); !ok {
			t.Fatal("resident key missed")
		}
		*kb = key
		c.putBuf(kb)
	})
	if allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f times per lookup, want 0", allocs)
	}
}
