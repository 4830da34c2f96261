package core

// On-disk persistence: a sealed-segment engine serializes to a versioned
// little-endian binary format and loads back bit-exactly — same answers,
// same Bytes — without re-deriving anything data-dependent. The file
// carries the engine's structural identity (roles, the fixed subproblem
// layout, the tree configuration) plus every segment's raw rows, global
// IDs, and tombstones; index structures (trees, sorted lists) are NOT
// serialized but rebuilt at load, which is deterministic: a segment's trees
// are a pure function of its rows and the tree configuration, so the
// reloaded engine's segment stack is structurally identical to the saved
// one. Runtime knobs (RuntimeOptions) are not part of the file; Load takes
// them fresh.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topk"
)

// persistVersion identifies the core engine's section of the file format.
// Bump on any incompatible change; Load rejects unknown versions outright
// rather than guessing. Version 2 added the snapshot's WAL sequence number
// (walLSN); version-1 files load with walLSN 0. Version 3 switched segment
// coordinate blocks from row-major to the segments' native dimension-major
// column layout and added a column-width byte (64, or 32 from the retired
// float32 sweep copy: the columns on disk are float64 either way); v1/v2
// files still load (their row-major blocks are transposed once at read).
const persistVersion = 3

// maxPersistDims caps the dimensionality Load will accept — a sanity bound
// that turns a corrupt header into an error instead of an absurd
// allocation.
const maxPersistDims = 1 << 16

type countingWriter struct {
	w   io.Writer
	err error
}

func (cw *countingWriter) write(v any) {
	if cw.err == nil {
		cw.err = binary.Write(cw.w, binary.LittleEndian, v)
	}
}

type countingReader struct {
	r   io.Reader
	err error
}

func (cr *countingReader) read(v any) {
	if cr.err == nil {
		cr.err = binary.Read(cr.r, binary.LittleEndian, v)
	}
}

func (cr *countingReader) u32() uint32 {
	var v uint32
	cr.read(&v)
	return v
}

func (cr *countingReader) u64() uint64 {
	var v uint64
	cr.read(&v)
	return v
}

// Save serializes the engine's current snapshot. It is lock-free like every
// read path: one atomic snapshot load pins the content, and concurrent
// Inserts, Removes, and compactions continue unhindered (they land in later
// snapshots and simply are not part of the file).
func (e *Engine) Save(w io.Writer) error {
	return e.saveSnapshot(w, e.snap.Load())
}

// saveSnapshot serializes one pinned snapshot — Save for the current one,
// the WAL's checkpoint writer for whichever snapshot it pinned.
func (e *Engine) saveSnapshot(w io.Writer, sn *snapshot) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	cw.write(uint32(persistVersion))
	cw.write(uint32(e.dims))
	for _, r := range e.roles {
		cw.write(uint8(r))
	}
	cw.write(uint8(e.pairing))
	cw.write(uint8(64)) // column width: the columns are float64 (Load also accepts 32)

	// Fixed layout.
	lo := &e.layout
	adaptive := uint8(0)
	if lo.adaptive {
		adaptive = 1
	}
	cw.write(adaptive)
	if lo.adaptive {
		cw.write(uint32(len(lo.gridRep)))
		for _, d := range lo.gridRep {
			cw.write(uint32(d))
		}
		cw.write(uint32(len(lo.gridAtt)))
		for _, d := range lo.gridAtt {
			cw.write(uint32(d))
		}
	} else {
		cw.write(uint32(len(lo.pairs)))
		for _, pr := range lo.pairs {
			cw.write(uint32(pr.Rep))
			cw.write(uint32(pr.Attr))
		}
		cw.write(uint32(len(lo.lone)))
		for _, d := range lo.lone {
			cw.write(uint32(d))
		}
	}

	// Tree configuration: the exact inputs segment rebuilds need. Angles are
	// persisted as their (Alpha, Beta) pairs, not degrees, so the reloaded
	// trees blend over bit-identical projection coefficients.
	cw.write(uint32(e.treeCfg.Branching))
	cw.write(uint32(e.treeCfg.LeafCap))
	cw.write(e.treeCfg.RebuildThreshold)
	cw.write(uint32(len(e.treeCfg.Angles)))
	for _, a := range e.treeCfg.Angles {
		cw.write(a.Alpha)
		cw.write(a.Beta)
	}

	cw.write(sn.minVal)
	cw.write(sn.maxVal)
	cw.write(uint64(sn.total))
	cw.write(uint64(sn.live))
	cw.write(sn.walLSN)

	writeBitset := func(bits []uint64) {
		cw.write(uint64(len(bits)))
		if len(bits) > 0 {
			cw.write(bits)
		}
	}
	cw.write(uint32(len(sn.segs)))
	for i, seg := range sn.segs {
		cw.write(uint64(seg.rows))
		cw.write(seg.ids)
		cw.write(seg.cols) // dimension-major since format v3
		writeBitset(sn.tombs[i])
	}
	cw.write(uint64(len(sn.memIDs)))
	cw.write(sn.memIDs)
	cw.write(sn.memFlat)
	writeBitset(sn.memDead)

	if cw.err != nil {
		return fmt.Errorf("core: save: %w", cw.err)
	}
	return bw.Flush()
}

// Load reconstructs an engine from a Save stream, rebuilding every sealed
// segment's trees and lists deterministically from the persisted rows. The
// reloaded engine answers byte-identically to the one that was saved and
// reports the same Bytes (the only state not round-tripped is runtime:
// context-pool warmth, plan cache contents, in-flight compaction).
//
// Load consumes exactly the engine's section of the stream — it does not
// buffer ahead — so several engines concatenate in one file (the retired
// sharded format did; see Merge). Callers should hand in an already-buffered
// reader.
func Load(r io.Reader, opt RuntimeOptions) (*Engine, error) {
	cr := &countingReader{r: r}
	fail := func(format string, args ...any) (*Engine, error) {
		return nil, fmt.Errorf("core: load: "+format, args...)
	}

	version := cr.u32()
	if cr.err == nil && (version < 1 || version > persistVersion) {
		return fail("unsupported format version %d (have %d)", version, persistVersion)
	}
	dims := int(cr.u32())
	if cr.err == nil && dims > maxPersistDims {
		return fail("implausible dimensionality %d", dims)
	}
	if cr.err != nil {
		return fail("%v", cr.err)
	}
	roles := make([]query.Role, dims)
	for d := range roles {
		var b uint8
		cr.read(&b)
		roles[d] = query.Role(b)
		switch roles[d] {
		case query.Ignored, query.Attractive, query.Repulsive:
		default:
			return fail("unknown role %d for dimension %d", b, d)
		}
	}
	var pairing uint8
	cr.read(&pairing)
	if version >= 3 {
		// Column width: 64, or 32 from an engine that also kept a float32
		// sweep copy. The persisted columns are float64 either way.
		var wb uint8
		cr.read(&wb)
		if cr.err == nil && wb != 32 && wb != 64 {
			return fail("unsupported column width %d", wb)
		}
	}

	dim := func(v uint32) (int, error) {
		if int(v) >= dims {
			return 0, fmt.Errorf("core: load: dimension %d out of range (%d dims)", v, dims)
		}
		return int(v), nil
	}
	var lo layout
	var adaptive uint8
	cr.read(&adaptive)
	if cr.err == nil && adaptive == 1 {
		lo.adaptive = true
		lo.gridPos = make([]int32, dims)
		nRep := int(cr.u32())
		if cr.err != nil || nRep > dims {
			return fail("bad grid row count")
		}
		lo.gridRep = make([]int, nRep)
		for i := range lo.gridRep {
			d, err := dim(cr.u32())
			if cr.err == nil && err != nil {
				return nil, err
			}
			lo.gridRep[i] = d
			lo.gridPos[d] = int32(i)
		}
		nAtt := int(cr.u32())
		if cr.err != nil || nAtt > dims {
			return fail("bad grid column count")
		}
		lo.gridAtt = make([]int, nAtt)
		for i := range lo.gridAtt {
			d, err := dim(cr.u32())
			if cr.err == nil && err != nil {
				return nil, err
			}
			lo.gridAtt[i] = d
			lo.gridPos[d] = int32(i)
		}
	} else if cr.err == nil {
		nPairs := int(cr.u32())
		if cr.err != nil || nPairs > dims {
			return fail("bad pair count")
		}
		lo.pairs = make([]Pair, nPairs)
		for i := range lo.pairs {
			rp, err1 := dim(cr.u32())
			ap, err2 := dim(cr.u32())
			if cr.err == nil && (err1 != nil || err2 != nil) {
				return fail("pair %d names an out-of-range dimension", i)
			}
			lo.pairs[i] = Pair{Rep: rp, Attr: ap}
		}
		nLone := int(cr.u32())
		if cr.err != nil || nLone > dims {
			return fail("bad lone count")
		}
		lo.lone = make([]int, nLone)
		for i := range lo.lone {
			d, err := dim(cr.u32())
			if cr.err == nil && err != nil {
				return nil, err
			}
			lo.lone[i] = d
		}
	}

	var treeCfg topk.Config
	treeCfg.Branching = int(cr.u32())
	treeCfg.LeafCap = int(cr.u32())
	cr.read(&treeCfg.RebuildThreshold)
	nAngles := int(cr.u32())
	if cr.err != nil || nAngles > 1024 {
		return fail("bad angle count")
	}
	for i := 0; i < nAngles; i++ {
		var a geom.Angle
		cr.read(&a.Alpha)
		cr.read(&a.Beta)
		treeCfg.Angles = append(treeCfg.Angles, a)
	}

	sn := &snapshot{
		minVal: make([]float64, dims),
		maxVal: make([]float64, dims),
	}
	cr.read(sn.minVal)
	cr.read(sn.maxVal)
	sn.total = int(cr.u64())
	sn.live = int(cr.u64())
	if version >= 2 {
		sn.walLSN = cr.u64()
	}
	if cr.err != nil || sn.total < 0 || int64(sn.total) > math.MaxInt32+1 || sn.live < 0 || sn.live > sn.total {
		return fail("implausible row counts (total %d, live %d)", sn.total, sn.live)
	}

	e := &Engine{
		dims:    dims,
		roles:   roles,
		pairing: Pairing(pairing),
		layout:  lo,
		treeCfg: treeCfg,
	}
	if err := opt.apply(e); err != nil {
		return fail("%v", err)
	}

	readBitset := func() ([]uint64, error) {
		words := int(cr.u64())
		if cr.err != nil {
			return nil, cr.err
		}
		if words == 0 {
			return nil, nil
		}
		if words > sn.total/64+1 {
			return nil, fmt.Errorf("core: load: implausible bitset size %d", words)
		}
		bits := make([]uint64, words)
		cr.read(bits)
		return bits, cr.err
	}
	readRows := func() (ids []int32, flat []float64, err error) {
		rows := int(cr.u64())
		if cr.err != nil {
			return nil, nil, cr.err
		}
		if rows < 0 || rows > sn.total {
			return nil, nil, fmt.Errorf("core: load: implausible row count %d (total %d)", rows, sn.total)
		}
		ids = make([]int32, rows)
		flat = make([]float64, rows*dims)
		cr.read(ids)
		cr.read(flat)
		if cr.err != nil {
			return nil, nil, cr.err
		}
		for i, id := range ids {
			if id < 0 || (i > 0 && id <= ids[i-1]) || int(id) >= sn.total {
				return nil, nil, fmt.Errorf("core: load: ids not ascending within [0, %d)", sn.total)
			}
		}
		for _, c := range flat {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, nil, fmt.Errorf("core: load: non-finite coordinate %v", c)
			}
		}
		return ids, flat, nil
	}

	nSegs := int(cr.u32())
	if cr.err != nil || nSegs > sn.total+1 {
		return fail("bad segment count")
	}
	segIDs := make([][]int32, nSegs)
	blocks := make([][]float64, nSegs)
	sn.tombs = make([][]uint64, nSegs)
	for si := 0; si < nSegs; si++ {
		ids, block, err := readRows()
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			return fail("segment %d is empty", si)
		}
		if si > 0 {
			if prev := segIDs[si-1]; ids[0] <= prev[len(prev)-1] {
				return fail("segment %d breaks the ascending-ID stack invariant", si)
			}
		}
		segIDs[si], blocks[si] = ids, block
		if sn.tombs[si], err = readBitset(); err != nil {
			return fail("%v", err)
		}
	}
	// The rebuild is the whole cost of a load, and segments rebuild
	// independently. v3 blocks are the segments' native dimension-major
	// columns; older files carry row-major blocks and transpose once here.
	var err error
	sn.segs, err = e.sealAll(nSegs, func(si int) ([]float64, []int32) {
		if version < 3 {
			return transposeToCols(blocks[si], len(segIDs[si]), dims), segIDs[si]
		}
		return blocks[si], segIDs[si]
	})
	if err != nil {
		return nil, err
	}
	if sn.memIDs, sn.memFlat, err = readRows(); err != nil {
		return nil, err
	}
	if len(sn.segs) > 0 && len(sn.memIDs) > 0 {
		prev := sn.segs[len(sn.segs)-1]
		if sn.memIDs[0] <= prev.ids[prev.rows-1] {
			return fail("memtable breaks the ascending-ID stack invariant")
		}
	}
	if sn.memDead, err = readBitset(); err != nil {
		return fail("%v", err)
	}
	if cr.err != nil {
		return fail("%v", cr.err)
	}

	// Cross-check the persisted live count against the actual tombstones —
	// a mismatch means a corrupt or truncated file, and live drives Len().
	counted := 0
	for i, seg := range sn.segs {
		counted += seg.rows - popcount(sn.tombs[i])
	}
	counted += len(sn.memIDs) - popcount(sn.memDead)
	if counted != sn.live {
		return fail("live count %d disagrees with tombstones (%d live rows)", sn.live, counted)
	}

	e.snap.Store(sn)
	e.initCtxPool()
	return e, nil
}

// Merge builds one engine over the live rows of several whose rows are
// disjoint slices of one global ID space — how a file written by the retired
// sharded index (one engine section per shard) loads. Structure (roles,
// pairing, tree shape) is the first part's; the ID space spans
// the widest part's, so an ID the old index assigned and then removed is not
// handed out again.
func Merge(parts []*Engine, opt RuntimeOptions) (*Engine, error) {
	first := parts[0]
	type row struct {
		id int32
		p  []float64
	}
	var live []row
	total := 0
	for pi, e := range parts {
		if e.dims != first.dims {
			return nil, fmt.Errorf("core: merge: part %d has %d dims, part 0 has %d", pi, e.dims, first.dims)
		}
		sn := e.snap.Load()
		total = max(total, sn.total)
		for si, s := range sn.segs {
			for l, id := range s.ids {
				if !bitGet(sn.tombs[si], l) {
					p := make([]float64, e.dims)
					s.copyRow(l, p)
					live = append(live, row{id, p})
				}
			}
		}
		for l, id := range sn.memIDs {
			if !bitGet(sn.memDead, l) {
				live = append(live, row{id, sn.memFlat[l*e.dims : (l+1)*e.dims]})
			}
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	data := make([][]float64, len(live))
	ids := make([]int32, len(live))
	for i, r := range live {
		data[i], ids[i] = r.p, r.id
	}
	e, err := NewWithIDs(data, ids, Config{
		Roles: first.roles, Pairing: first.pairing, Tree: first.treeCfg, RuntimeOptions: opt,
	})
	if err != nil {
		return nil, fmt.Errorf("core: merge: %w", err)
	}
	e.snap.Load().total = total // not yet shared: no reader can hold this snapshot
	return e, nil
}
