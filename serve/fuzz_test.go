package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"

	sdquery "repro"
	"repro/internal/dataset"
)

// FuzzDecodeQuery drives the HTTP request decoder with coverage-guided raw
// bodies: arbitrary JSON (and non-JSON) bytes must never panic, and any
// body the decoder accepts must satisfy every invariant the engine relies
// on — correct lengths, finite non-negative weights, k ≥ 1, at least one
// active role — which the fuzz body then proves by running the decoded
// query end to end against a real index. The seed corpus lives under
// testdata/fuzz/FuzzDecodeQuery; CI runs this target in the fuzz smoke
// alongside FuzzTopK and FuzzTopKChurn.

// fuzzIdx is the shared end-to-end index: decoded queries are executed
// against it, so an invariant the decoder misses surfaces as an engine
// panic under the fuzzer instead of in production.
var fuzzIdx = sync.OnceValue(func() *sdquery.SDIndex {
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	idx, err := sdquery.NewSDIndex(dataset.Generate(dataset.Uniform, 256, len(roles), 60), roles)
	if err != nil {
		panic(err)
	}
	return idx
})

const fuzzDims = 4

func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[1,0.5,0.25,1]}`))
	f.Add([]byte(`{"point":[0,0,0,0],"k":1,"roles":["repulsive","attractive","ignored","ignored"]}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":0,"roles":["r","a","r","a"]}`))
	f.Add([]byte(`{"point":[0.1,0.2],"k":3,"roles":["r","a"]}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","sideways"]}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[-1,1,1,1]}`))
	f.Add([]byte(`{"point":[1e308,-1e308,0,0],"k":2,"roles":["r","r","i","i"],"weights":[1e308,1,0,0]}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["i","i","i","i"]}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"stats":true}`))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"extra":1}`))
	f.Add([]byte(`{"queries":[{"point":[0.1,0.2,0.3,0.4],"k":3}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"point":[0.1,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"]} trailing`))
	f.Add([]byte(`{"point":[-0.0,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"],"weights":[-0.0,1,1,1]}`))
	f.Add([]byte(`{"point":[NaN,0.2,0.3,0.4],"k":3,"roles":["r","a","r","a"]}`))
	f.Add([]byte(`{"point":[1e-323,2.2250738585072014e-308,0.3,0.4],"k":3,"roles":["r","a","r","a"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		q, _, err := decodeQuery(body, fuzzDims)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		// Accepted inputs must satisfy the engine's preconditions exactly.
		if q.K < 1 {
			t.Fatalf("decoder accepted k=%d", q.K)
		}
		if len(q.Point) != fuzzDims || len(q.Roles) != fuzzDims || len(q.Weights) != fuzzDims {
			t.Fatalf("decoder accepted mismatched lengths: point %d, roles %d, weights %d",
				len(q.Point), len(q.Roles), len(q.Weights))
		}
		active := 0
		for i := range q.Roles {
			switch q.Roles[i] {
			case sdquery.Attractive, sdquery.Repulsive:
				active++
			case sdquery.Ignored:
			default:
				t.Fatalf("decoder produced unknown role %v", q.Roles[i])
			}
			if !(math.Abs(q.Weights[i]) <= 1e150) || q.Weights[i] < 0 {
				t.Fatalf("decoder accepted weight %v", q.Weights[i])
			}
			if !(math.Abs(q.Point[i]) <= 1e150) {
				t.Fatalf("decoder accepted point coordinate %v", q.Point[i])
			}
		}
		if active == 0 {
			t.Fatal("decoder accepted a query with no active dimensions")
		}
		// The cache-key encoder must handle anything the decoder accepts:
		// deterministic bytes, and numerically-equal floats (+0.0 vs -0.0)
		// collapsing to one key, since the result cache would otherwise hold
		// duplicate entries for one logical query.
		key := appendQueryKey(nil, q)
		if !bytes.Equal(key, appendQueryKey(nil, q)) {
			t.Fatal("cache key encoding is not deterministic")
		}
		flipped := sdquery.Query{
			Point:   append([]float64(nil), q.Point...),
			K:       q.K,
			Roles:   q.Roles,
			Weights: append([]float64(nil), q.Weights...),
		}
		for i := range flipped.Point {
			if flipped.Point[i] == 0 {
				flipped.Point[i] = math.Copysign(0, -1)
			}
			if flipped.Weights[i] == 0 {
				flipped.Weights[i] = math.Copysign(0, -1)
			}
		}
		if !bytes.Equal(key, appendQueryKey(nil, flipped)) {
			t.Fatal("±0.0 produced distinct cache keys")
		}
		// End to end: the engine may still reject (build-time role flips are
		// invisible to the decoder) but must never panic on decoder-accepted
		// input.
		if _, err := fuzzIdx().TopK(q); err == nil {
			return
		}
	})
}
