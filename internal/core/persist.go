package core

// On-disk persistence: a sealed-segment engine serializes to a versioned
// little-endian binary format and loads back bit-exactly — same answers,
// same Bytes, same Stats. The file carries the engine's structural identity
// (roles, the fixed subproblem layout, the tree configuration) plus every
// segment's raw rows, global IDs, and tombstones, all in ID order; the
// tiling (tile.go: the STR order, byID, the block boxes) and, on a
// StreamOnly engine, the index structures (trees, sorted lists) are NOT
// serialized but rebuilt at load, which is
// deterministic: a segment's trees and tiling are a pure function of its
// rows in ID order and the tree configuration, so the reloaded engine's
// segment stack is structurally identical to the saved one, and a file
// does not depend on how its segments were tiled. Runtime knobs
// (RuntimeOptions) are not part of the file; Load takes them fresh. One
// version is written and read (persistVersion); the bytes reach Load from
// files, CHECKPOINTs and replication streams this process did not write, so
// Load checks every field before it allocates or builds.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topk"
)

// persistVersion identifies the core engine's section of the file format.
// Bump on any incompatible change; Load reads this version only and refuses
// every other by number rather than guessing. Version 3 stores each segment
// as dimension-major columns and carries the snapshot's WAL sequence number
// (walLSN) and a column-width byte (64, or 32 from the retired float32 sweep
// copy: the columns on disk are float64 either way). Versions 1 and 2, which
// stored row-major blocks, are refused.
const persistVersion = 3

// maxPersistDims caps the dimensionality Load will accept — a sanity bound
// that turns a corrupt header into an error instead of an absurd
// allocation. It bounds the tree fan-out the same way.
const maxPersistDims = 1 << 16

// loadChunk bounds how far Load allocates ahead of the bytes it has read: a
// length field can claim anything, so every length-prefixed array grows with
// its data (readArray) and a length the stream cannot back ends in
// io.ErrUnexpectedEOF instead of an allocation sized by the claim.
const loadChunk = 1 << 16

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

// read decodes v; every field is mandatory, so running out of stream is an
// io.ErrUnexpectedEOF wherever it happens.
func (cr *countingReader) read(v any) {
	if cr.err == nil {
		cr.err = binary.Read(cr.r, binary.LittleEndian, v)
		if cr.err == io.EOF {
			cr.err = io.ErrUnexpectedEOF
		}
	}
}

func (cr *countingReader) u8() uint8 {
	var v uint8
	cr.read(&v)
	return v
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

// readArray reads n little-endian values. The slice grows as the bytes
// arrive, at most loadChunk elements per read and by doubling from loadChunk
// up to exactly n, so memory stays within about twice the bytes read and the
// result carries no spare capacity.
func readArray[T int32 | uint64 | float64](cr *countingReader, n int) []T {
	var out []T
	for len(out) < n && cr.err == nil {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, max(loadChunk, 2*cap(out))))
			copy(grown, out)
			out = grown
		}
		m := min(cap(out), len(out)+loadChunk)
		cr.read(out[len(out):m])
		out = out[:m]
	}
	return out
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
	cw.write(uint8(1))  // pairing byte: 1 is the in-order zip (see Load)
	cw.write(uint8(64)) // column width: the columns are float64 (Load also accepts 32)

	// Layout byte 0: the pair list, then the lone dimensions.
	lo := &e.layout
	cw.write(uint8(0))
	cw.write(uint32(len(lo.pairs)))
	for _, pr := range lo.pairs {
		cw.write(uint32(pr.Rep))
		cw.write(uint32(pr.Attr))
	}
	cw.write(uint32(len(lo.lone)))
	for _, d := range lo.lone {
		cw.write(uint32(d))
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
	// Segments go out in ID order (byID), whatever order they are tiled in:
	// the file is the same for every tiling.
	cw.write(uint32(len(sn.segs)))
	for i, seg := range sn.segs {
		cw.write(uint64(seg.rows))
		ids := make([]int32, seg.rows)
		for r, l := range seg.byID {
			ids[r] = seg.ids[l]
		}
		cw.write(ids)
		col := make([]float64, seg.rows)
		for d := 0; d < e.dims; d++ { // dimension-major since format v3
			tiled := seg.cols[d*seg.rows : (d+1)*seg.rows]
			for r, l := range seg.byID {
				col[r] = tiled[l]
			}
			cw.write(col)
		}
		writeBitset(seg.idBits(sn.tombs[i]))
	}
	memCols, stride, memIDs, memDead := sn.layer(memSrc, e.dims)
	rows := make([]float64, len(memIDs)*e.dims) // the file's memtable is row-major
	for l := range memIDs {
		copyRow(memCols, stride, l, rows[l*e.dims:(l+1)*e.dims])
	}
	cw.write(uint64(len(memIDs)))
	cw.write(memIDs)
	cw.write(rows)
	writeBitset(memDead)

	if cw.err != nil {
		return fmt.Errorf("core: save: %w", cw.err)
	}
	return bw.Flush()
}

// Load reconstructs an engine from a Save stream, resealing every segment
// deterministically from the persisted rows (trees and lists included only
// under RuntimeOptions.StreamOnly). The
// reloaded engine answers byte-identically to the one that was saved and
// reports the same Bytes (the only state not round-tripped is runtime:
// context-pool warmth, in-flight compaction).
//
// Load trusts nothing it reads. Every length-prefixed array is read in
// bounded chunks (readArray), the layout must name each active dimension
// exactly once in a slot of its role, IDs must ascend within [0, total),
// tombstones must fall on rows and agree with the live count, and any other
// version than persistVersion is refused.
//
// Load consumes exactly the engine's section of the stream — it does not
// buffer ahead — so several engines concatenate in one file (the retired
// sharded format did; see Merge). Callers should hand in an already-buffered
// reader.
func Load(r io.Reader, opt RuntimeOptions) (*Engine, error) {
	cr := &countingReader{r: r}
	// bad records the first refusal in cr.err, where reads stop too: every
	// read after it returns zero values, so the checks below run in stream
	// order and the first failure is the one reported.
	bad := func(format string, args ...any) {
		if cr.err == nil {
			cr.err = fmt.Errorf(format, args...)
		}
	}
	fail := func() (*Engine, error) { return nil, fmt.Errorf("core: load: %w", cr.err) }

	if version := cr.u32(); version != persistVersion {
		bad("unsupported format version %d (this build reads version %d only)", version, persistVersion)
	}
	dims := int(cr.u32())
	if dims > maxPersistDims {
		bad("implausible dimensionality %d", dims)
	}
	if cr.err != nil {
		return fail()
	}
	roles := make([]query.Role, dims)
	active := 0
	for d := range roles {
		switch roles[d] = query.Role(cr.u8()); roles[d] {
		case query.Attractive, query.Repulsive:
			active++
		case query.Ignored:
		default:
			bad("unknown role %d for dimension %d", roles[d], d)
		}
	}
	// The pairing byte named the strategy that chose the layout: 0 the retired
	// adaptive grid, 1 the in-order zip (what Save writes), 2–4 the retired
	// by-correlation, by-variance and pair-free strategies. The layout that
	// follows is stored explicitly, so every known byte loads the same way.
	if b := cr.u8(); b > 4 {
		bad("unknown pairing byte %d", b)
	}
	// Column width: 64, or 32 from an engine that also kept a float32 sweep
	// copy. The persisted columns are float64 either way.
	if width := cr.u8(); width != 32 && width != 64 {
		bad("unsupported column width %d", width)
	}

	// The layout names every active dimension exactly once, each in a slot
	// of its role: pair and grid rows are repulsive, pair and grid columns
	// attractive, lone dimensions either. Layout byte 1 is the retired
	// adaptive grid, which listed only the grid's rows and columns: it loads
	// as their in-order zip, and the longer list's leftovers become lone
	// dimensions.
	seen := make([]bool, dims)
	listed := 0
	dim := func(slot string, want ...query.Role) int {
		switch v := cr.u32(); {
		case cr.err != nil:
		case v >= uint32(dims):
			bad("%s dimension %d out of range (%d dims)", slot, v, dims)
		case !slices.Contains(want, roles[v]):
			bad("%s dimension %d has role %v", slot, v, roles[v])
		case seen[v]:
			bad("dimension %d is listed twice in the layout", v)
		default:
			seen[v] = true
			listed++
			return int(v)
		}
		return 0
	}
	count := func(slot string) int {
		n := cr.u32()
		if n > uint32(dims) {
			bad("bad %s count %d", slot, n)
			return 0
		}
		return int(n)
	}
	dimList := func(slot string, want ...query.Role) []int {
		out := make([]int, count(slot))
		for i := range out {
			out[i] = dim(slot, want...)
		}
		return out
	}
	var lo layout
	switch layoutByte := cr.u8(); {
	case cr.err != nil:
	case layoutByte == 1:
		rows := dimList("grid row", query.Repulsive)
		cols := dimList("grid column", query.Attractive)
		lo = pairLayout(makePairs(rows, cols), rows, cols)
	case layoutByte == 0:
		lo.pairs = make([]Pair, count("pair"))
		for i := range lo.pairs {
			lo.pairs[i] = Pair{Rep: dim("pair row", query.Repulsive), Attr: dim("pair column", query.Attractive)}
		}
		lo.lone = dimList("lone", query.Repulsive, query.Attractive)
	default:
		bad("unknown layout byte %d", layoutByte)
	}
	if listed != active {
		bad("layout covers %d of %d active dimensions", listed, active)
	}

	var treeCfg topk.Config
	treeCfg.Branching = int(cr.u32())
	treeCfg.LeafCap = int(cr.u32())
	cr.read(&treeCfg.RebuildThreshold)
	nAngles := int(cr.u32())
	if nAngles > 1024 || treeCfg.Branching > maxPersistDims {
		bad("bad tree configuration (branching %d, %d angles)", treeCfg.Branching, nAngles)
	}
	for i := 0; i < nAngles && cr.err == nil; i++ {
		var a geom.Angle
		cr.read(&a.Alpha)
		cr.read(&a.Beta)
		// Trees take angles in [0°, 90°] only, and a default engine's seals
		// build none, so a bad angle is caught here, not at a seal.
		if _, err := geom.NewAngle(a.Alpha, a.Beta); err != nil {
			bad("indexed angle (%v, %v) outside [0°, 90°]", a.Alpha, a.Beta)
		}
		treeCfg.Angles = append(treeCfg.Angles, a)
	}

	sn := &snapshot{
		minVal: make([]float64, dims),
		maxVal: make([]float64, dims),
	}
	cr.read(sn.minVal)
	cr.read(sn.maxVal)
	sn.total, sn.live, sn.walLSN = int(cr.u64()), int(cr.u64()), cr.u64()
	if sn.total < 0 || int64(sn.total) > math.MaxInt32+1 || sn.live < 0 || sn.live > sn.total {
		bad("implausible row counts (total %d, live %d)", sn.total, sn.live)
	}

	// readRows reads one row block: IDs ascending across the whole stack and
	// below total, coordinates inside the value domain.
	lastID := int32(-1)
	readRows := func() (ids []int32, cols []float64) {
		rows := cr.u64()
		if rows > uint64(sn.total) {
			bad("implausible row count %d (total %d)", rows, sn.total)
			return nil, nil
		}
		ids = readArray[int32](cr, int(rows))
		cols = readArray[float64](cr, int(rows)*dims)
		for _, id := range ids {
			if id <= lastID || int(id) >= sn.total {
				bad("ids not ascending within [0, %d)", sn.total)
			}
			lastID = id
		}
		for _, c := range cols {
			if err := query.CheckValue(c); err != nil {
				bad("coordinate %w", err)
			}
		}
		return ids, cols
	}
	// readBitset reads a tombstone set over rows rows: no longer than the
	// rows need, and no bit past the last row.
	readBitset := func(rows int) []uint64 {
		words, full := cr.u64(), uint64(rows+63)/64
		if words > full {
			bad("%d tombstone words for %d rows", words, rows)
			return nil
		}
		bits := readArray[uint64](cr, int(words))
		if cr.err == nil && words == full && rows%64 != 0 && bits[words-1]>>(rows%64) != 0 {
			bad("tombstone past the last of %d rows", rows)
		}
		return bits
	}

	// Segments are appended as they arrive: the count is only a claim.
	nSegs := cr.u32()
	if int64(nSegs) > int64(sn.total)+1 {
		bad("bad segment count %d", nSegs)
	}
	var segIDs [][]int32
	var blocks [][]float64
	for si := 0; si < int(nSegs) && cr.err == nil; si++ {
		ids, cols := readRows()
		if len(ids) == 0 {
			bad("segment %d is empty", si)
		}
		segIDs, blocks = append(segIDs, ids), append(blocks, cols)
		sn.tombs = append(sn.tombs, readBitset(len(ids)))
	}
	var memRows []float64 // row-major in the file
	sn.memIDs, memRows = readRows()
	sn.memDead = readBitset(len(sn.memIDs))

	// Cross-check the persisted live count against the actual tombstones —
	// a mismatch means a corrupt or truncated file, and live drives Len().
	counted := len(sn.memIDs) - popcount(sn.memDead)
	for i, ids := range segIDs {
		counted += len(ids) - popcount(sn.tombs[i])
	}
	if counted != sn.live {
		bad("live count %d disagrees with tombstones (%d live rows)", sn.live, counted)
	}
	if cr.err != nil {
		return fail()
	}
	// The memtable goes dimension-major, into a block of exactly its rows
	// (the first Insert regrows it): value i is row i/dims, dimension i%dims.
	sn.memCols = make([]float64, len(memRows))
	for i, v := range memRows {
		sn.memCols[i%dims*len(sn.memIDs)+i/dims] = v
	}

	e := &Engine{
		dims:    dims,
		roles:   roles,
		layout:  lo,
		treeCfg: treeCfg,
	}
	if err := opt.apply(e); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// The rebuild is the whole cost of a load, and segments rebuild
	// independently from their dimension-major columns. The file's
	// tombstones are in ID order; the rebuilt segments are tiled.
	var err error
	sn.segs, err = e.sealAll(len(segIDs), func(si int) ([]float64, []int32) {
		return blocks[si], segIDs[si]
	})
	if err != nil {
		return nil, err
	}
	for si, seg := range sn.segs {
		sn.tombs[si] = seg.tiledBits(sn.tombs[si])
	}
	e.snap.Store(sn)
	e.initCtxPool()
	return e, nil
}

// Merge builds one engine over the live rows of several whose rows are
// disjoint slices of one global ID space — how a file written by the retired
// sharded index (one engine section per shard) loads. Roles and tree shape
// are the first part's, the pairs their in-order zip; the ID space spans
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
		for si := memSrc; si < len(sn.segs); si++ {
			cols, stride, ids, dead := sn.layer(si, e.dims)
			for l, id := range ids {
				if !bitGet(dead, l) {
					p := make([]float64, e.dims)
					copyRow(cols, stride, l, p)
					live = append(live, row{id, p})
				}
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
		Roles: first.roles, Tree: first.treeCfg, RuntimeOptions: opt,
	})
	if err != nil {
		return nil, fmt.Errorf("core: merge: %w", err)
	}
	e.snap.Load().total = total // not yet shared: no reader can hold this snapshot
	return e, nil
}
