package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	sdquery "repro"
)

// The benchmark's own seeded input generator. The program under test sees
// only what comes out of here; nothing is shared with internal/bench or
// internal/dataset, so those can change without moving a benchmark number.

const dims = 6

// roles is the fixed role assignment of every dataset and query: aaarrr.
var roles = []sdquery.Role{
	sdquery.Attractive, sdquery.Attractive, sdquery.Attractive,
	sdquery.Repulsive, sdquery.Repulsive, sdquery.Repulsive,
}

// PCG stream numbers: every input stream of a run derives from the one
// --seed through its own stream, so changing how many values one stream
// draws never shifts another.
const (
	streamData    = 1
	streamPool    = 2
	streamProbe   = 3
	streamWriter  = 4
	streamClient0 = 16 // client c draws from streamClient0+c
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// newRows allocates n rows over one flat backing array.
func newRows(n int) [][]float64 {
	flat := make([]float64, n*dims)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return rows
}

// uniformRows draws n rows from U(0,1)^6.
func uniformRows(n int, seed uint64) [][]float64 {
	r := newRand(seed, streamData)
	rows := newRows(n)
	for _, row := range rows {
		for d := range row {
			row[d] = r.Float64()
		}
	}
	return rows
}

const (
	clusterCount = 16
	clusterSigma = 0.05
)

// clusterCentres are the same for every seed: where 16 centres fall decides
// how hard the rows are for the index (measured: ±10 % on topk_p50_ms from
// seed to seed when the centres moved with it), and a workload should be one
// workload. The seed draws the rows around them.
var clusterCentres = func() (c [clusterCount][dims]float64) {
	r := newRand(0x5d, streamData)
	for i := range c {
		fillPoint(r, c[i][:])
	}
	return c
}()

// clusteredRows draws n rows from 16 Gaussian clusters (σ = 0.05) around
// clusterCentres, clipped to [0,1].
func clusteredRows(n int, seed uint64) [][]float64 {
	r := newRand(seed, streamData)
	centres := &clusterCentres
	rows := newRows(n)
	for _, row := range rows {
		c := &centres[r.IntN(clusterCount)]
		for d := range row {
			row[d] = math.Min(1, math.Max(0, c[d]+clusterSigma*r.NormFloat64()))
		}
	}
	return rows
}

// fillPoint draws one point from U(0,1)^6 into p.
func fillPoint(r *rand.Rand, p []float64) {
	for d := range p {
		p[d] = r.Float64()
	}
}

// fillQuery draws one query into q, reusing q's Point and Weights slices:
// point and weights U(0,1), one query in four with two weights zeroed (a
// different plan shape), k ∈ {1, 5, 50} at shares 25/50/25.
func fillQuery(r *rand.Rand, q *sdquery.Query) {
	if q.Point == nil {
		q.Point = make([]float64, dims)
		q.Weights = make([]float64, dims)
		q.Roles = roles
	}
	fillPoint(r, q.Point)
	fillPoint(r, q.Weights)
	if r.IntN(4) == 0 {
		i := r.IntN(dims)
		j := (i + 1 + r.IntN(dims-1)) % dims
		q.Weights[i], q.Weights[j] = 0, 0
	}
	switch r.IntN(4) {
	case 0:
		q.K = 1
	case 3:
		q.K = 50
	default:
		q.K = 5
	}
}

// cloneQuery copies q out of a stream's reused buffers.
func cloneQuery(q sdquery.Query) sdquery.Query {
	q.Point = append([]float64(nil), q.Point...)
	q.Weights = append([]float64(nil), q.Weights...)
	return q
}

// genQueries draws n independent queries from one stream.
func genQueries(n int, seed, stream uint64) []sdquery.Query {
	r := newRand(seed, stream)
	out := make([]sdquery.Query, n)
	for i := range out {
		fillQuery(r, &out[i])
	}
	return out
}

func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

// appendTopKBody encodes q as a /v1/topk request body. Floats use the
// shortest round-trip form, so the server decodes exactly q.
func appendTopKBody(b []byte, q sdquery.Query) []byte {
	b = append(b, `{"point":`...)
	b = appendFloats(b, q.Point)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, `,"roles":["a","a","a","r","r","r"],"weights":`...)
	b = appendFloats(b, q.Weights)
	return append(b, '}')
}

func appendInsertBody(b []byte, p []float64) []byte {
	b = append(b, `{"point":`...)
	b = appendFloats(b, p)
	return append(b, '}')
}

// FNV-1a, inlined so hashing a request costs no allocation.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// hashQuery hashes the float bits of the point and weights, and k: the
// identity of a query at the engine boundary, where no request body exists.
func hashQuery(q sdquery.Query) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * fnvPrime
		}
	}
	for _, x := range q.Point {
		mix(math.Float64bits(x))
	}
	for _, x := range q.Weights {
		mix(math.Float64bits(x))
	}
	mix(uint64(q.K))
	return h
}

// hotPool is the fixed set of queries serve-hot draws from, with their
// bodies encoded once, and the Zipf distribution over their ranks.
type hotPool struct {
	queries []sdquery.Query
	bodies  [][]byte
	cdf     []float64
}

// Frozen with BENCHMARK.json: pool size is 4× the result-cache capacity, and
// the exponent was chosen once so that serve.cache_hit_rate lands in
// 0.85–0.95 (see README.md).
const (
	hotPoolSize = 4096
	hotZipfExp  = 1.1
)

func newHotPool(seed uint64) *hotPool {
	p := &hotPool{queries: genQueries(hotPoolSize, seed, streamPool)}
	p.bodies = make([][]byte, hotPoolSize)
	p.cdf = make([]float64, hotPoolSize)
	sum := 0.0
	for i, q := range p.queries {
		p.bodies[i] = appendTopKBody(nil, q)
		sum += math.Pow(float64(i+1), -hotZipfExp)
		p.cdf[i] = sum
	}
	for i := range p.cdf {
		p.cdf[i] /= sum
	}
	return p
}

func (p *hotPool) pick(r *rand.Rand) int {
	i := sort.SearchFloat64s(p.cdf, r.Float64())
	return min(i, hotPoolSize-1)
}

// stream is one closed-loop client's query sequence: every query distinct,
// or, with a pool, Zipf draws from it.
type stream struct {
	r      *rand.Rand
	pool   *hotPool
	noBody bool
	q      sdquery.Query
	body   []byte
}

func newStream(seed uint64, client int, pool *hotPool) *stream {
	return &stream{r: newRand(seed, streamClient0+uint64(client)), pool: pool}
}

// next returns the stream's next query and, unless noBody, its request body.
// Both are valid until the following call. poolIdx is -1 for a distinct query.
func (s *stream) next() (q sdquery.Query, body []byte, poolIdx int) {
	if s.pool != nil {
		i := s.pool.pick(s.r)
		return s.pool.queries[i], s.pool.bodies[i], i
	}
	fillQuery(s.r, &s.q)
	if s.noBody {
		return s.q, nil, -1
	}
	s.body = appendTopKBody(s.body[:0], s.q)
	return s.q, s.body, -1
}
