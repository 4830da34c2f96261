package sdquery

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestPublicEnginesAgree runs every public engine on the same workload and
// demands identical score sequences.
func TestPublicEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := dataset.Generate(dataset.Uniform, 400, 4, 1)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}

	scanEng, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	taEng, err := NewTA(data)
	if err != nil {
		t.Fatal(err)
	}
	brsEng, err := NewBRS(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	peEng, err := NewPE(data)
	if err != nil {
		t.Fatal(err)
	}
	sdEng, err := NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]Engine{"ta": taEng, "brs": brsEng, "pe": peEng, "sd": sdEng}

	for qi := 0; qi < 15; qi++ {
		q := Query{
			Point:   []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
			K:       rng.Intn(8) + 1,
			Roles:   roles,
			Weights: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		}
		want, err := scanEng.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range engines {
			got, err := eng.TopK(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("%s result %d: score %v, want %v", name, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestHugeKReturnsEveryRow: a k far beyond the row count is a valid query
// that returns every row in rank order — no engine may size a buffer by k.
func TestHugeKReturnsEveryRow(t *testing.T) {
	const n = 1000
	data := dataset.Generate(dataset.Uniform, n, 4, 3)
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	q := Query{Point: []float64{0.2, 0.4, 0.6, 0.8}, K: 1 << 40, Roles: roles, Weights: []float64{1, 0.5, 2, 1}}
	scanEng, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scanEng.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("scan returned %d rows, want all %d", len(want), n)
	}
	builders := []struct {
		name  string
		build func() (Engine, error)
	}{
		{"scan", func() (Engine, error) { return NewScan(data) }},
		{"ta", func() (Engine, error) { return NewTA(data) }},
		{"brs", func() (Engine, error) { return NewBRS(data, 0) }},
		{"pe", func() (Engine, error) { return NewPE(data) }},
		{"sd", func() (Engine, error) { return NewSDIndex(data, roles) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			eng, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%d rows, want all %d", len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rank %d: %+v, scan has %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestQueryScoreMatchesDefinition(t *testing.T) {
	q := Query{
		Point:   []float64{0, 10},
		K:       1,
		Roles:   []Role{Attractive, Repulsive},
		Weights: []float64{2, 3},
	}
	// p = (1, 14): −2·|1−0| + 3·|14−10| = −2 + 12 = 10
	if got := q.Score([]float64{1, 14}); math.Abs(got-10) > 1e-12 {
		t.Fatalf("Score = %v, want 10", got)
	}
}

// TestSDIndexBadAngles: an indexed projection angle outside [0°, 90°] is
// refused. The public constructor fixes the paper's default angles, so the
// one way an angle reaches an SDIndex from outside is a saved file; one whose
// tree configuration lists −5° or 120° must not load.
func TestSDIndexBadAngles(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 10, 2, 3)
	idx, err := NewSDIndex(data, []Role{Repulsive, Attractive})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// Envelope (6), version and dimension count (4 + 4), two roles, the
	// pairing, width and layout bytes, one pair (4 + 8), no lone dimension
	// (4), then branching, leaf capacity (4 + 4) and rebuild threshold (8).
	at := 6 + 4 + 4 + 2 + 3 + 12 + 4 + 16
	if n := binary.LittleEndian.Uint32(file[at:]); n != 0 {
		t.Fatalf("Save wrote %d angles, want the default's 0", n)
	}
	if _, err := LoadSDIndex(bytes.NewReader(file)); err != nil {
		t.Fatalf("unmodified file refused: %v", err)
	}
	for _, deg := range []float64{120, -5} {
		rad := deg * math.Pi / 180
		bad := append([]byte(nil), file[:at]...)
		bad = binary.LittleEndian.AppendUint32(bad, 1)
		bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(math.Cos(rad)))
		bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(math.Sin(rad)))
		bad = append(bad, file[at+4:]...)
		if got, err := LoadSDIndex(bytes.NewReader(bad)); err == nil {
			got.Close()
			t.Errorf("angle %v° accepted", deg)
		}
	}
}

func TestSDIndexUpdates(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 100, 2, 4)
	roles := []Role{Attractive, Repulsive}
	idx, err := NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	id, err := idx.Insert([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 101 {
		t.Fatalf("Len = %d, want 101", idx.Len())
	}
	if !idx.Remove(id) {
		t.Fatal("Remove of fresh insert failed")
	}
	if idx.Remove(id) {
		t.Fatal("double Remove succeeded")
	}
	if idx.Bytes() <= 0 {
		t.Fatal("Bytes not positive")
	}
	if got := idx.Roles(); len(got) != 2 || got[0] != Attractive {
		t.Fatalf("Roles = %v", got)
	}
}

func TestTop1IndexPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	data := dataset.Generate(dataset.Uniform, 500, 2, 5)
	cfg := Top1Config{AttractiveWeight: 1, RepulsiveWeight: 1, K: 3}
	idx, err := NewTop1Index(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.K() != 3 || idx.Len() != 500 {
		t.Fatalf("K=%d Len=%d", idx.K(), idx.Len())
	}
	scanEng, _ := NewScan(data)
	roles := []Role{Attractive, Repulsive}
	for qi := 0; qi < 25; qi++ {
		pt := []float64{rng.Float64(), rng.Float64()}
		got, err := idx.TopK(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := scanEng.TopK(Query{Point: pt, K: 3, Roles: roles, Weights: []float64{1, 1}})
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("result %d: %v, want %v", i, got[i].Score, want[i].Score)
			}
		}
	}
	// Update path.
	if err := idx.Insert(1000, []float64{0.5, 2}); err != nil {
		t.Fatal(err)
	}
	res, _ := idx.TopK([]float64{0.5, 0})
	if res[0].ID != 1000 {
		t.Fatalf("dominant inserted point not top-1: %+v", res[0])
	}
	if !idx.Delete(1000, []float64{0.5, 2}) {
		t.Fatal("Delete failed")
	}
	if _, err := idx.TopK([]float64{0.5}); err == nil {
		t.Fatal("1-coordinate query accepted")
	}
	if err := idx.Insert(1, []float64{1}); err == nil {
		t.Fatal("1-coordinate insert accepted")
	}
	if idx.Delete(1, []float64{1}) {
		t.Fatal("1-coordinate delete succeeded")
	}
}

func TestTop1IndexValidation(t *testing.T) {
	if _, err := NewTop1Index([][]float64{{1, 2, 3}}, Top1Config{AttractiveWeight: 1, RepulsiveWeight: 1, K: 1}); err == nil {
		t.Fatal("3-column data accepted")
	}
	if _, err := NewTop1Index(nil, Top1Config{AttractiveWeight: 1, RepulsiveWeight: 1, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEngineErrorsSurface(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 10, 2, 6)
	for name, mk := range map[string]func() (Engine, error){
		"scan": func() (Engine, error) { return NewScan(data) },
		"ta":   func() (Engine, error) { return NewTA(data) },
		"brs":  func() (Engine, error) { return NewBRS(data, 0) },
		"pe":   func() (Engine, error) { return NewPE(data) },
	} {
		eng, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eng.TopK(Query{Point: []float64{1}, K: 1,
			Roles: []Role{Repulsive}, Weights: []float64{1}}); err == nil {
			t.Fatalf("%s accepted mismatched dims", name)
		}
		if eng.Len() != 10 {
			t.Fatalf("%s Len = %d", name, eng.Len())
		}
	}
}

// TestAllZeroWeights pins queries whose every engaged dimension weighs zero
// (the rest Ignored, whatever their weights): every block bound is +0, so
// every segment is swept whole, every live row scores +0 and the answer is
// the k lowest live IDs — over three sealed segments, memtable rows and
// tombstones (default), after a Compact has sealed the memtable and dropped
// the removed rows, and after a Save → Load round trip. The last two cells
// keep their historical names, stream and round-robin (they ran the retired
// §5 streams and scheduler). The scan oracle cannot tell −0 from +0 under
// ==, so the sign is checked on its own.
func TestAllZeroWeights(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	data := dataset.Generate(dataset.Uniform, 6_000, 4, 41)
	extra := dataset.Generate(dataset.Uniform, 50, 4, 42)
	all := append(append([][]float64(nil), data...), extra...)
	dead := map[int]bool{}
	for id := 0; id < len(all); id += 97 { // every segment and the memtable
		dead[id] = true
	}
	dead[1], dead[2], dead[6_001] = true, true, true
	scanEng, err := NewScan(all)
	if err != nil {
		t.Fatal(err)
	}
	everyRow, err := scanEng.TopK(Query{Point: make([]float64, 4), K: len(all), Roles: roles, Weights: make([]float64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	var live []Result // the scan's answer with removed rows masked out
	for _, r := range everyRow {
		if !dead[r.ID] {
			live = append(live, r)
		}
	}
	queries := []Query{
		{Point: []float64{0.3, 0.7, 0.1, 0.9}, Roles: roles, Weights: []float64{0, 0, 0, 0}},
		{Point: []float64{0.3, 0.7, 0.1, 0.9}, Roles: []Role{Ignored, Attractive, Ignored, Attractive}, Weights: []float64{7, 0, 9, 0}},
		{Point: []float64{0.5, 0.5, 0.5, 0.5}, Roles: []Role{Repulsive, Ignored, Repulsive, Attractive}, Weights: []float64{0, 5, 0, 0}},
	}
	for _, mode := range []struct {
		name            string
		compact, reload bool
	}{
		{"default", false, false},
		{"stream", true, false},
		{"round-robin", false, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := []SDOption{WithShards(3), WithCompaction(false)}
			idx, err := NewSDIndex(data, roles, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			for _, p := range extra {
				if _, err := idx.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for id := range dead {
				if !idx.Remove(id) {
					t.Fatalf("remove %d refused", id)
				}
			}
			if mode.reload {
				var buf bytes.Buffer
				if err := idx.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if idx, err = LoadSDIndex(&buf, opts...); err != nil {
					t.Fatal(err)
				}
				defer idx.Close()
			}
			memRows := len(extra)
			if mode.compact {
				idx.Compact()
				memRows = 0
			}
			if segs, mem := idx.Segments(); segs != 3 || mem != memRows {
				t.Fatalf("%d segments, %d memtable rows, want 3, %d", segs, mem, memRows)
			}
			for qi, q := range queries {
				for _, k := range []int{1, 7, 100, len(all)} {
					q.K = k
					got, st, err := idx.TopKWithStats(q)
					if err != nil {
						t.Fatal(err)
					}
					want := live[:min(k, len(live))]
					if len(got) != len(want) {
						t.Fatalf("query %d k=%d: %d results, want %d", qi, k, len(got), len(want))
					}
					for i, r := range got {
						if r != want[i] || r.Score != 0 || math.Signbit(r.Score) {
							t.Fatalf("query %d k=%d rank %d: %+v, want %+v at +0", qi, k, i, r, want[i])
						}
						if dead[r.ID] || (i > 0 && r.ID <= got[i-1].ID) {
							t.Fatalf("query %d k=%d rank %d: ID %d removed or out of order", qi, k, i, r.ID)
						}
					}
					if st.SweptSegments != 3 || st.BlocksSkipped != 0 {
						t.Fatalf("query %d k=%d: skipped a segment or a block: %+v", qi, k, st)
					}
				}
			}
		})
	}
}
