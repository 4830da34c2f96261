// Persistence round-trip tests: a saved index must reload bit-exactly —
// same answers (ascending-ID tie-breaks included), same Bytes, same
// liveness — and a reloaded index must keep serving updates with the same
// global ID sequence. The double-save check is the strongest form: because
// segments round-trip verbatim and their tiling rebuilds deterministically,
// saving the reloaded index must reproduce the file byte for byte.
package sdquery

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// churn builds a messy storage stack: interleaved inserts and removes over
// a small memtable threshold, leaving sealed segments, tombstones, and a
// partially filled memtable behind.
func churn(t *testing.T, idx interface {
	Insert([]float64) (int, error)
	Remove(int) bool
}, dims, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if rng.Intn(3) == 0 {
			idx.Remove(rng.Intn(200))
		} else {
			p := make([]float64, dims)
			for d := range p {
				p[d] = float64(rng.Intn(8)) / 8
			}
			if _, err := idx.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func persistQueries(dims int, roles []Role, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 24)
	for i := range out {
		q := Query{
			Point:   make([]float64, dims),
			K:       1 + rng.Intn(20),
			Roles:   append([]Role(nil), roles...),
			Weights: make([]float64, dims),
		}
		for d := 0; d < dims; d++ {
			q.Point[d] = rng.Float64()
			q.Weights[d] = float64(rng.Intn(5)) / 4
		}
		out[i] = q
	}
	return out
}

// TestSaveLoadSDIndexRoundTrip runs on the one-segment sequential index and
// on a three-segment one with batch workers: the file is the same format
// either way, and the segment stack round-trips as saved.
func TestSaveLoadSDIndexRoundTrip(t *testing.T) {
	t.Run("one-segment", func(t *testing.T) { testSaveLoadRoundTrip(t) })
	t.Run("three-segments-workers", func(t *testing.T) {
		testSaveLoadRoundTrip(t, WithShards(3), WithWorkers(2))
	})
}

func testSaveLoadRoundTrip(t *testing.T, opts ...SDOption) {
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	data := dataset.Generate(dataset.Uniform, 600, len(roles), 41)
	opts = append(opts, WithMemtableSize(64), WithCompaction(false))
	idx, err := NewSDIndex(data, roles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	churn(t, idx, len(roles), 300, 42)
	idx.Compact() // seal part of the history...
	churn(t, idx, len(roles), 90, 43)
	// ...and leave live tombstones plus memtable rows on top.

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadSDIndex(bytes.NewReader(saved), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	if loaded.Len() != idx.Len() {
		t.Fatalf("Len: loaded %d, saved %d", loaded.Len(), idx.Len())
	}
	if loaded.Bytes() != idx.Bytes() {
		t.Fatalf("Bytes: loaded %d, saved %d", loaded.Bytes(), idx.Bytes())
	}
	if ls, lm := loaded.Segments(); true {
		if os, om := idx.Segments(); ls != os || lm != om {
			t.Fatalf("stack shape: loaded (%d segs, %d mem), saved (%d, %d)", ls, lm, os, om)
		}
	}
	for qi, q := range persistQueries(len(roles), roles, 44) {
		want, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "loaded vs saved", got, want)
		_ = qi
	}

	// Deterministic rebuild ⇒ saving the loaded index reproduces the file.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatalf("double save differs: %d vs %d bytes", len(saved), buf2.Len())
	}

	// The loaded index keeps serving updates under the continued global ID
	// sequence.
	id, err := loaded.Insert([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := idx.Insert([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("post-load Insert returned ID %d, original returns %d", id, wantID)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadSDIndex(bytes.NewReader([]byte("not an index file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	roles := []Role{Repulsive, Attractive}
	idx, err := NewSDIndex(dataset.Generate(dataset.Uniform, 50, 2, 61), roles)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An unknown kind byte is a clear error, not a misparse.
	alien := append([]byte(nil), buf.Bytes()...)
	alien[5] = 9
	if _, err := LoadSDIndex(bytes.NewReader(alien)); err == nil {
		t.Fatal("unknown index kind accepted")
	}
	// Truncation anywhere fails loudly.
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 3} {
		if _, err := LoadSDIndex(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated file (%d of %d bytes) accepted", cut, buf.Len())
		}
	}
}
