package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/baseline/scan"
	"repro/internal/query"
)

// loadRoles is the role vector of the hand-patched files below: two
// repulsive × attractive pairs under the fixed layout, one lone repulsive
// dimension, one ignored dimension.
var loadRoles = []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive, query.Repulsive, query.Ignored}

// savedFile saves a small engine with sealed rows, a tombstone in the sealed
// segment, memtable rows and a memtable tombstone.
func savedFile(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	row := func() []float64 {
		p := make([]float64, len(loadRoles))
		for d := range p {
			p[d] = rng.Float64()
		}
		return p
	}
	data := make([][]float64, 8)
	for i := range data {
		data[i] = row()
	}
	e, err := New(data, Config{Roles: loadRoles, RuntimeOptions: RuntimeOptions{DisableCompaction: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Insert(row()); err != nil {
			t.Fatal(err)
		}
	}
	e.Remove(3)
	e.Remove(9)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Offsets into a savedFile: version, dims, one role byte per dimension, the
// pairing, width and layout bytes, then the layout's u32 fields.
const (
	offPairing = 8 + 6
	offLayout  = offPairing + 2
	offLists   = offLayout + 1 // the first count of the layout
)

// gridFile rewrites a savedFile into the layout-1 file the
// retired adaptive pair-tree grid saved for the same rows: pairing byte 0,
// grid rows [0 2 4] and grid columns [1 3] in place of pairs (0,1), (2,3)
// and lone [4]. The two layouts take the same 28 bytes, and the grid loads
// as exactly the fixed layout it replaced.
func gridFile(fixed []byte) []byte {
	out := patchByte(patchByte(fixed, offPairing, 0), offLayout, 1)
	for i, v := range []uint32{3, 0, 2, 4, 2, 1, 3} {
		binary.LittleEndian.PutUint32(out[offLists+4*i:], v)
	}
	return out
}

// patchU32 and patchByte return a copy of file with one field replaced.
func patchU32(file []byte, off int, v uint32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

func patchByte(file []byte, off int, v byte) []byte {
	out := append([]byte(nil), file...)
	out[off] = v
	return out
}

// lyingHeader is a 92-byte version-3 stream over one ignored dimension that
// claims total rows, nSegs segments and a first segment of rows rows, and
// then ends: every claimed array is missing.
func lyingHeader(total uint64, nSegs uint32, rows uint64) []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32(persistVersion)
	u32(1)                   // dims
	b = append(b, 0, 1, 64)  // role ignored, pairing in-order, column width
	b = append(b, 0)         // fixed layout
	u32(0)                   // pairs
	u32(0)                   // lone dimensions
	u32(8)                   // branching
	u32(64)                  // leaf capacity
	u64(0)                   // rebuild threshold
	u32(0)                   // angles
	u64(0)                   // minVal
	u64(math.Float64bits(1)) // maxVal
	u64(total)
	u64(total) // live
	u64(0)     // walLSN
	u32(nSegs)
	u64(rows)
	return b
}

// TestSaveBytesPinned pins Save's exact output over every part of the
// format: a sealed segment with tombstones, and a memtable past
// MemtableSize (compaction off, so its block regrew twice) with a
// tombstone of its own. The engine holds memtable rows dimension-major and
// the file row-major; round trips cannot see a change of either, this can.
func TestSaveBytesPinned(t *testing.T) {
	const want = "0d240525900faaa6e5aecd08ce48d28a78c3d41d169bce8c4b46dd35e6fab7b1"
	rng := rand.New(rand.NewSource(36))
	row := func() []float64 {
		p := make([]float64, len(loadRoles))
		for d := range p {
			p[d] = rng.Float64()
		}
		return p
	}
	data := make([][]float64, 40)
	for i := range data {
		data[i] = row()
	}
	e, err := New(data, Config{Roles: loadRoles, RuntimeOptions: RuntimeOptions{MemtableSize: 4, DisableCompaction: true}})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Insert(row()); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(10)
	e.Compact()
	for _, id := range []int{3, 17, 44} {
		e.Remove(id)
	}
	insert(11)
	e.Remove(52)
	if segs, mem := e.Segments(); segs != 1 || mem != 11 {
		t.Fatalf("%d segments and %d memtable rows, want 1 and 11", segs, mem)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("Save output sha256 %s, want %s", got, want)
	}
}

func TestLoadRefusesOldVersions(t *testing.T) {
	file := savedFile(t)
	if _, err := Load(bytes.NewReader(file), RuntimeOptions{}); err != nil {
		t.Fatalf("unpatched file: %v", err)
	}
	for _, v := range []uint32{1, 2, 4} {
		_, err := Load(bytes.NewReader(patchU32(file, 0, v)), RuntimeOptions{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d ", v)) {
			t.Fatalf("version %d: err %v, want a refusal naming the version", v, err)
		}
	}
}

// TestLoadLyingLengths feeds headers whose size fields claim far more than
// the stream holds. Each must end in io.ErrUnexpectedEOF after allocating
// about what the stream holds, not what it claims.
func TestLoadLyingLengths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input []byte
	}{
		{"rows", lyingHeader(1<<31, 1, 1<<31)},
		{"segments", lyingHeader(1<<31, 1<<31-1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "rows" && len(tc.input) != 92 {
				t.Fatalf("header is %d bytes, want 92", len(tc.input))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(tc.input), RuntimeOptions{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
				t.Fatalf("refusing a %d-byte stream allocated %d bytes", len(tc.input), alloc)
			}
		})
	}
}

// badLayouts are single-field patches of a valid file, each naming a layout
// Load must refuse, and the error text that says why.
func badLayouts(t testing.TB) []struct {
	name, want string
	file       []byte
} {
	fixed := savedFile(t)   // pairs (0,1), (2,3); lone [4]
	grid := gridFile(fixed) // rows [0 2 4]; columns [1 3]
	pair := func(i, field int) int { return offLists + 4 + 8*i + 4*field }
	lone := offLists + 4 + 8*2 + 4
	return []struct {
		name, want string
		file       []byte
	}{
		{"layout byte", "unknown layout byte 7", patchByte(fixed, offLayout, 7)},
		{"pairing byte", "unknown pairing byte 5", patchByte(fixed, offPairing, 5)},
		{"pair row", "pair row dimension 5 has role ignored", patchU32(fixed, pair(0, 0), 5)},
		{"pair column", "pair column dimension 4 has role repulsive", patchU32(fixed, pair(1, 1), 4)},
		{"grid row", "grid row dimension 1 has role attractive", patchU32(grid, offLists+4, 1)},
		{"grid column", "grid column dimension 5 has role ignored", patchU32(grid, offLists+4+12+4, 5)},
		{"lone", "lone dimension 5 has role ignored", patchU32(fixed, lone, 5)},
		{"twice", "dimension 0 is listed twice", patchU32(fixed, lone, 0)},
	}
}

// TestLoadGridLayout loads a layout-1 file of the retired adaptive grid, and
// Save writes it back as the layout-0 file the same rows save to today, byte
// for byte.
func TestLoadGridLayout(t *testing.T) {
	fixed := savedFile(t)
	e, err := Load(bytes.NewReader(gridFile(fixed)), RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fixed) {
		t.Fatal("re-saved grid file differs from the fixed layout's file")
	}
}

// TestLoadLegacyPairingByte loads files whose pairing byte names a retired
// strategy (2 by-correlation, 3 by-variance, 4 none). Each loads, answers
// like the scan, and saves back as the in-order file, byte for byte.
func TestLoadLegacyPairingByte(t *testing.T) {
	fixed := savedFile(t)
	for b := byte(2); b <= 4; b++ {
		e, err := Load(bytes.NewReader(patchByte(fixed, offPairing, b)), RuntimeOptions{DisableCompaction: true})
		if err != nil {
			t.Fatalf("pairing byte %d: %v", b, err)
		}
		matchesScan(t, e, int64(b))
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fixed) {
			t.Fatalf("pairing byte %d: re-saved file differs from the in-order file", b)
		}
	}
}

func TestLoadRefusesBadLayout(t *testing.T) {
	fixed := savedFile(t)
	for _, file := range [][]byte{fixed, gridFile(fixed)} {
		if _, err := Load(bytes.NewReader(file), RuntimeOptions{}); err != nil {
			t.Fatalf("unpatched file (layout byte %d): %v", file[offLayout], err)
		}
	}
	for _, tc := range badLayouts(t) {
		_, err := Load(bytes.NewReader(tc.file), RuntimeOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load. It must never panic and never
// allocate past what the input backs; a stream it accepts must report a Len
// equal to its untombstoned rows and answer exactly like the scan over them.
func FuzzLoad(f *testing.F) {
	fixed := savedFile(f)
	for _, file := range [][]byte{fixed, gridFile(fixed)} {
		f.Add(file)
		for _, cut := range []int{0, 5, offLists, len(file) / 2, len(file) - 9, len(file) - 1} {
			f.Add(file[:cut])
		}
	}
	f.Add(lyingHeader(1<<31, 1, 1<<31))
	f.Add(lyingHeader(1<<31, 1<<31-1, 1))
	for _, tc := range badLayouts(f) {
		f.Add(tc.file)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := Load(bytes.NewReader(raw), RuntimeOptions{DisableCompaction: true})
		if err != nil {
			return
		}
		matchesScan(t, e, int64(len(raw)))
	})
}

// matchesScan checks a loaded engine against the scan over its untombstoned
// rows: Len must count them, and four random queries (drawn from seed) must
// return the scan's answers bit for bit.
func matchesScan(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	sn := e.snap.Load()
	var ids []int
	var rows [][]float64
	for si := memSrc; si < len(sn.segs); si++ {
		cols, stride, layerIDs, dead := sn.layer(si, e.dims)
		for r := range layerIDs {
			// Ascending IDs, the scan's tie order: a segment's through byID.
			l := r
			if si >= 0 {
				l = int(sn.segs[si].byID[r])
			}
			if !bitGet(dead, l) {
				p := make([]float64, e.dims)
				copyRow(cols, stride, l, p)
				ids, rows = append(ids, int(layerIDs[l])), append(rows, p)
			}
		}
	}
	if e.Len() != len(ids) {
		t.Fatalf("Len %d, but %d rows are untombstoned", e.Len(), len(ids))
	}
	if sn.total > 1<<16 {
		// A query clears a bitset over the whole claimed ID space (up to
		// 256 MiB): that is the engine's per-query cost, not the loader's,
		// and would only slow the fuzzer down.
		return
	}
	truth, err := scan.New(rows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for qi := 0; qi < 4; qi++ {
		spec := query.Spec{
			Point:   make([]float64, e.dims),
			K:       1 + rng.Intn(len(ids)+2),
			Roles:   e.roles,
			Weights: make([]float64, e.dims),
		}
		for d := range spec.Point {
			spec.Point[d], spec.Weights[d] = rng.Float64(), rng.Float64()
		}
		got, err := e.TopK(spec)
		if spec.Validate(e.dims) != nil {
			if err == nil {
				t.Fatalf("query %d: accepted a spec the scan refuses", qi)
			}
			continue
		}
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		var want []query.Result
		if len(rows) > 0 {
			if want, err = truth.TopK(spec); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, scan %d", qi, len(got), len(want))
		}
		for i, w := range want {
			if got[i].ID != ids[w.ID] || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
				t.Fatalf("query %d result %d: (%d, %v), scan (%d, %v)", qi, i, got[i].ID, got[i].Score, ids[w.ID], w.Score)
			}
		}
	}
}
