// Native Go fuzzing over the SD-Index query surface: random datasets, query
// weights, k, and role demotions, differentially checked against the
// sequential scan — the same oracle the enginetest harness uses, here driven
// by coverage-guided input generation instead of a fixed workload table.
// The seed corpus lives under testdata/fuzz/FuzzTopK.
package sdquery_test

import (
	"math/rand"
	"sort"
	"testing"

	sdquery "repro"
)

// fuzzZone is the zone mode a seed selects through dataSeed's bits 40 and
// up; zero or all ones there — every small seed — keeps the grid data of
// fuzzDataset. A zone seed's dataset outgrows one 128-row block, so its
// segments are STR-tiled and swept block by block, and its rows, inserted
// rows and query points all draw from one value corner: uniform,
// clustered, all equal, denormal, or the value domain's ±1e150 ends.
type fuzzZone struct {
	on      bool
	kind    int
	centers [4]float64
}

func newFuzzZone(dataSeed int64) fuzzZone {
	hi := dataSeed >> 40
	if hi == 0 || hi == -1 {
		return fuzzZone{}
	}
	z := fuzzZone{on: true, kind: int(uint64(hi) % 5)}
	rng := rand.New(rand.NewSource(hi))
	for i := range z.centers {
		z.centers[i] = rng.Float64()
	}
	return z
}

// rows is the dataset size nRaw selects.
func (z fuzzZone) rows(nRaw uint8) int {
	if z.on {
		return 129 + int(nRaw)
	}
	return 1 + int(nRaw)%64
}

// value draws one coordinate of the zone's corner.
func (z fuzzZone) value(rng *rand.Rand) float64 {
	switch z.kind {
	case 0:
		return rng.Float64()
	case 1:
		return z.centers[rng.Intn(len(z.centers))] + rng.NormFloat64()*1e-3
	case 2:
		return z.centers[0]
	case 3:
		return (rng.Float64() - 0.5) * 0x1p-1040
	default:
		return []float64{-1e150, 1e150, rng.Float64()}[rng.Intn(3)]
	}
}

// fuzzDataset derives a small deterministic dataset and role set. Half the
// coordinates snap to a 4-step grid so exact score ties are common; a zone
// seed's coordinates come from its corner instead.
func fuzzDataset(seed int64, n, dims int) ([][]float64, []sdquery.Role) {
	rng := rand.New(rand.NewSource(seed))
	zone := newFuzzZone(seed)
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, dims)
		for d := range row {
			if zone.on {
				row[d] = zone.value(rng)
			} else if rng.Intn(2) == 0 {
				row[d] = float64(rng.Intn(4)) / 4
			} else {
				row[d] = rng.Float64()
			}
		}
		data[i] = row
	}
	roles := make([]sdquery.Role, dims)
	for d := range roles {
		roles[d] = []sdquery.Role{sdquery.Attractive, sdquery.Repulsive, sdquery.Ignored}[rng.Intn(3)]
	}
	roles[rng.Intn(dims)] = sdquery.Repulsive // at least one active dimension
	return data, roles
}

// FuzzTopKChurn drives the storage layer: a tiny memtable (so coverage-
// guided inputs force seals, folds, and tombstone masking through the
// background compactor) under an interleaved insert/remove/query stream,
// with a snapshot pinned mid-churn, on a one-segment sequential index and
// on three twins: one pinned to streaming, a multi-segment one with workers
// and one whose memtable is never sealed. Every live answer must match the
// oracle over the current row set; the pinned snapshot must keep matching
// the oracle frozen at its acquisition.
func FuzzTopKChurn(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(5), int64(2), uint8(30))
	f.Add(int64(9), uint8(60), uint8(5), uint8(2), int64(3), uint8(80))
	f.Add(int64(4), uint8(10), uint8(2), uint8(9), int64(7), uint8(255))
	f.Fuzz(func(t *testing.T, dataSeed int64, nRaw, dimsRaw, kRaw uint8, opSeed int64, opsRaw uint8) {
		zone := newFuzzZone(dataSeed)
		n := zone.rows(nRaw)
		dims := 1 + int(dimsRaw)%5
		data, roles := fuzzDataset(dataSeed, n, dims)

		idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithMemtableSize(4))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		// A stream-pinned twin: every seal under the churn builds trees and
		// lists, and every query streams them.
		idxStream, err := sdquery.NewSDIndex(data, roles,
			sdquery.WithMemtableSize(4), sdquery.WithStreamOnly())
		if err != nil {
			t.Fatalf("build stream-only: %v", err)
		}
		// A segmented twin with batch workers: the same churn over a
		// three-segment stack the compactor keeps re-splitting under its
		// cap, every query checked once more as half of a batch (one forked
		// task per query).
		idxSeg, err := sdquery.NewSDIndex(data, roles,
			sdquery.WithMemtableSize(4), sdquery.WithShards(3), sdquery.WithWorkers(2))
		if err != nil {
			t.Fatalf("build segmented: %v", err)
		}
		defer idxSeg.Close()
		// A compaction-off twin: its memtable is never sealed, so its column
		// block regrows many times under the churn and every query sweeps
		// all the rows inserted since the build.
		idxMem, err := sdquery.NewSDIndex(data, roles,
			sdquery.WithMemtableSize(4), sdquery.WithCompaction(false))
		if err != nil {
			t.Fatalf("build compaction-off: %v", err)
		}
		twins := []struct {
			name string
			idx  *sdquery.SDIndex
		}{{"stream-only", idxStream}, {"segmented", idxSeg}, {"compaction-off", idxMem}}
		mirror := append([][]float64(nil), data...)
		dead := make([]bool, len(mirror))

		oracleTopK := func(mir [][]float64, dd []bool, q sdquery.Query) []sdquery.Result {
			var all []sdquery.Result
			for id, p := range mir {
				if dd[id] {
					continue
				}
				all = append(all, sdquery.Result{ID: id, Score: q.Score(p)})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].Score != all[j].Score {
					return all[i].Score > all[j].Score
				}
				return all[i].ID < all[j].ID
			})
			if len(all) > q.K {
				all = all[:q.K]
			}
			return all
		}
		rng := rand.New(rand.NewSource(opSeed))
		newQuery := func() sdquery.Query {
			q := sdquery.Query{
				Point:   make([]float64, dims),
				K:       1 + int(kRaw)%(len(mirror)+2),
				Roles:   append([]sdquery.Role(nil), roles...),
				Weights: make([]float64, dims),
			}
			for d := 0; d < dims; d++ {
				if q.Point[d] = float64(rng.Intn(9)) / 8; zone.on {
					q.Point[d] = zone.value(rng)
				}
				if rng.Intn(3) == 0 {
					q.Weights[d] = 1
				} else {
					q.Weights[d] = rng.Float64()
				}
			}
			return q
		}
		checkOne := func(label string, got, want []sdquery.Result) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, oracle has %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: rank %d differs\ngot  %v\nwant %v", label, i, got, want)
				}
			}
		}

		snap := idx.Snapshot()
		snapMirror := append([][]float64(nil), mirror...)
		snapDead := append([]bool(nil), dead...)

		ops := 1 + int(opsRaw)%96
		for op := 0; op < ops; op++ {
			switch rng.Intn(4) {
			case 0:
				p := make([]float64, dims)
				for d := range p {
					if p[d] = float64(rng.Intn(4)) / 4; zone.on {
						p[d] = zone.value(rng)
					}
				}
				id, err := idx.Insert(p)
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				if id != len(mirror) {
					t.Fatalf("op %d: insert returned %d, want %d", op, id, len(mirror))
				}
				for _, tw := range twins {
					if tid, err := tw.idx.Insert(p); err != nil || tid != id {
						t.Fatalf("op %d: %s insert returned %d, %v; want %d", op, tw.name, tid, err, id)
					}
				}
				mirror = append(mirror, p)
				dead = append(dead, false)
			case 1:
				id := rng.Intn(len(mirror))
				if idx.Remove(id) != !dead[id] {
					t.Fatalf("op %d: Remove(%d) disagrees with mirror", op, id)
				}
				for _, tw := range twins {
					if tw.idx.Remove(id) != !dead[id] {
						t.Fatalf("op %d: %s Remove(%d) disagrees with mirror", op, tw.name, id)
					}
				}
				dead[id] = true
			case 2:
				q := newQuery()
				got, err := idx.TopK(q)
				if err != nil {
					t.Fatalf("op %d: query: %v", op, err)
				}
				want := oracleTopK(mirror, dead, q)
				checkOne("live", got, want)
				for _, tw := range twins {
					got, err := tw.idx.TopK(q)
					if err != nil {
						t.Fatalf("op %d: %s query: %v", op, tw.name, err)
					}
					checkOne("live-"+tw.name, got, want)
				}
				q2 := newQuery()
				batch, err := idxSeg.BatchTopK([]sdquery.Query{q, q2})
				if err != nil {
					t.Fatalf("op %d: batch: %v", op, err)
				}
				checkOne("batch[0]", batch[0], want)
				checkOne("batch[1]", batch[1], oracleTopK(mirror, dead, q2))
			default:
				q := newQuery()
				got, err := snap.TopK(q)
				if err != nil {
					t.Fatalf("op %d: snapshot query: %v", op, err)
				}
				checkOne("snapshot", got, oracleTopK(snapMirror, snapDead, q))
			}
		}
	})
}

func FuzzTopK(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(5), uint16(0), int64(2))
	f.Add(int64(7), uint8(64), uint8(6), uint8(64), uint16(0b10), int64(9))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint16(0xffff), int64(4))
	f.Add(int64(11), uint8(30), uint8(4), uint8(33), uint16(0b101), int64(5))
	f.Fuzz(func(t *testing.T, dataSeed int64, nRaw, dimsRaw, kRaw uint8, demote uint16, qSeed int64) {
		zone := newFuzzZone(dataSeed)
		n := zone.rows(nRaw)
		dims := 1 + int(dimsRaw)%6
		data, roles := fuzzDataset(dataSeed, n, dims)

		idx, err := sdquery.NewSDIndex(data, roles)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		// The other way through a segment: the default zone-sweeps every
		// segment, so a twin is pinned to pure streaming.
		idxStream, err := sdquery.NewSDIndex(data, roles, sdquery.WithStreamOnly())
		if err != nil {
			t.Fatalf("build stream-only: %v", err)
		}
		oracle, err := sdquery.NewScan(data)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}

		rng := rand.New(rand.NewSource(qSeed))
		q := sdquery.Query{
			Point:   make([]float64, dims),
			K:       1 + int(kRaw)%(n+2),
			Roles:   append([]sdquery.Role(nil), roles...),
			Weights: make([]float64, dims),
		}
		for d := 0; d < dims; d++ {
			if q.Point[d] = float64(rng.Intn(9)) / 8; zone.on {
				q.Point[d] = zone.value(rng)
			}
			switch rng.Intn(3) {
			case 0:
				q.Weights[d] = 0
			case 1:
				q.Weights[d] = 1
			default:
				q.Weights[d] = rng.Float64()
			}
		}
		// Demote active dimensions by bitmask, keeping at least one active.
		active := 0
		for _, r := range q.Roles {
			if r != sdquery.Ignored {
				active++
			}
		}
		for d := 0; d < dims && active > 1; d++ {
			if q.Roles[d] != sdquery.Ignored && demote&(1<<uint(d)) != 0 {
				q.Roles[d] = sdquery.Ignored
				active--
			}
		}

		want, err := oracle.TopK(q)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, eng := range []struct {
			name string
			idx  *sdquery.SDIndex
		}{{"sdindex", idx}, {"sdindex-stream", idxStream}} {
			got, err := eng.idx.TopK(q)
			if err != nil {
				t.Fatalf("%s: %v", eng.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s returned %d results, scan %d\nq=%+v\ngot  %v\nwant %v",
					eng.name, len(got), len(want), q, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: rank %d differs\nq=%+v\ngot  %v\nwant %v", eng.name, i, q, got, want)
				}
			}
		}
	})
}
