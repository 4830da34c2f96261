package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
)

// snapshot is one immutable epoch of the engine's data: the stack of sealed
// segments, their tombstone bitsets, and a bounded view of the mutable
// memtable. Readers obtain the current snapshot with a single atomic load
// and then touch no synchronization at all; writers (Insert, Remove, the
// compactor's swap) build a new snapshot value and publish it atomically.
//
// Sharing discipline: segment structures are immutable forever. Tombstone
// bitsets are copy-on-write — a Remove copies the affected segment's bitset,
// so bitsets reachable from any published snapshot never change. The
// memtable's backing arrays are append-shared: Insert extends memIDs and
// writes the row into the next free slot of each memCols column, which is
// safe because every older snapshot bounds its reads by its own row count,
// and the writer only ever writes beyond every published length (writes are
// serialized by Engine.wrMu).
type snapshot struct {
	// epoch is the snapshot's version number: strictly increasing across
	// every publish (insert, remove, compaction swap), assigned under wrMu
	// as cur.epoch+1. Two loads returning equal epochs therefore prove no
	// snapshot was published in between — the invariant the serve layer's
	// result cache keys on (an answer computed while the epoch held steady
	// is exactly the answer any later query at that epoch would get).
	epoch uint64

	segs  []*segment
	tombs [][]uint64 // parallel to segs; nil = no removals in that segment

	memIDs  []int32   // memtable global IDs, ascending (insertion order)
	memCols []float64 // memtable columns, stride len/dims (layer); nil when empty
	memDead []uint64  // memtable tombstones (COW, like segment tombs)

	total int // global ID space size: the next Insert's ID lower bound
	live  int // live rows across segments and memtable

	// walLSN is the log sequence number of the last mutation folded into
	// this snapshot — 0 without a WAL. Checkpoints persist it so recovery
	// knows where replay starts; replay skips records at or below it.
	walLSN uint64

	// Per-dimension coordinate extrema over every row ever indexed
	// (removals keep them, which only loosens the bound). They size the
	// float-error pad that keeps tie-breaking deterministic — see slack.
	minVal, maxVal []float64
}

// memRows reports the number of memtable rows this snapshot can see.
func (sn *snapshot) memRows() int { return len(sn.memIDs) }

// memSrc is the memtable's ordinal where a layer of the stack is numbered.
const memSrc = -1

// layer returns one layer of the stack — sealed segment seg, or the memtable
// for seg = memSrc — as a sweep reads it: its dimension-major column block
// and column stride, its global IDs and its tombstones. The memtable's block
// has a fixed stride, len/dims (a 0-dimension block is empty).
func (sn *snapshot) layer(seg, dims int) (cols []float64, stride int, ids []int32, dead []uint64) {
	if seg >= 0 {
		s := sn.segs[seg]
		return s.cols, s.rows, s.ids, sn.tombs[seg]
	}
	return sn.memCols, len(sn.memCols) / max(dims, 1), sn.memIDs, sn.memDead
}

// bytes is the snapshot's resident size: every sealed segment (columns, ID
// map and its inverse, block boxes, tombstones), the memtable's rows and
// tombstones, and the extrema.
func (sn *snapshot) bytes() int {
	dims := len(sn.minVal)
	total := 8 * 2 * dims
	for i, s := range sn.segs {
		total += s.bytes(len(sn.tombs[i]))
	}
	total += (4+8*dims)*len(sn.memIDs) + 8*len(sn.memDead)
	return total
}

// locate finds a global ID in this snapshot: the owning segment's ordinal
// (or memSrc for the memtable) and the local row index, with ok=false when the
// row is absent (never inserted, or dropped by compaction). Tombstoned rows
// are still located; callers check liveness separately.
func (sn *snapshot) locate(id int) (seg int, local int, ok bool) {
	if id < 0 || id >= sn.total {
		return 0, 0, false
	}
	// Global IDs ascend across the stack: every ID in segs[i] is smaller
	// than every ID in segs[i+1], and memtable IDs are the largest. Find
	// the first layer whose max ID covers id, then binary-search within.
	n := len(sn.segs)
	li := sort.Search(n, func(i int) bool { return sn.segs[i].maxID >= int32(id) })
	if li < n {
		if l := sn.segs[li].findLocal(int32(id)); l >= 0 {
			return li, l, true
		}
		return 0, 0, false
	}
	ids := sn.memIDs
	l := sort.Search(len(ids), func(i int) bool { return ids[i] >= int32(id) })
	if l < len(ids) && ids[l] == int32(id) {
		return memSrc, l, true
	}
	return 0, 0, false
}

// alive reports whether a located row is untombstoned.
func (sn *snapshot) alive(seg, local int) bool {
	if seg < 0 {
		return !bitGet(sn.memDead, local)
	}
	return !bitGet(sn.tombs[seg], local)
}

// View is an immutable point-in-time handle over an Engine: queries through
// a View see exactly the rows that were live when the View was acquired, no
// matter how many Inserts, Removes, or compactions run afterwards. The zero
// View is not usable; acquire one with Engine.View.
type View struct {
	e  *Engine
	sn *snapshot
}

// Len reports the number of live rows the View can see.
func (v View) Len() int { return v.sn.live }

// Segments reports the number of sealed segments backing the View, and
// MemRows the number of memtable rows it can see — observability for
// compaction behavior.
func (v View) Segments() int { return len(v.sn.segs) }

// MemRows reports the number of memtable rows visible to the View.
func (v View) MemRows() int { return v.sn.memRows() }

// Epoch reports the version number of the snapshot backing the View. See
// Engine.Epoch.
func (v View) Epoch() uint64 { return v.sn.epoch }

// View acquires the engine's current snapshot: one atomic pointer load, no
// lock. The returned View pins the snapshot's row set for as long as the
// caller holds it (memory is reclaimed by GC once the last View drops).
func (e *Engine) View() View { return View{e: e, sn: e.snap.Load()} }

// TopK answers the query against the View's frozen row set. See Engine.TopK.
func (v View) TopK(spec query.Spec) ([]query.Result, error) {
	res, _, err := v.TopKAppend(nil, spec)
	return res, err
}

// TopKAppend is Engine.TopKAppend evaluated at the View's snapshot.
func (v View) TopKAppend(dst []query.Result, spec query.Spec) ([]query.Result, Stats, error) {
	return v.e.topKAppendAt(v.sn, dst, spec, nil)
}

// TopKAppendCancel is Engine.TopKAppendCancel evaluated at the View's
// snapshot: when done is closed the aggregation stops at its next
// scheduling step and returns ErrCanceled.
func (v View) TopKAppendCancel(dst []query.Result, spec query.Spec, done <-chan struct{}) ([]query.Result, Stats, error) {
	return v.e.topKAppendAt(v.sn, dst, spec, done)
}

// Insert appends a point to the memtable and returns its global dataset ID.
// The write path never touches sealed segments: sealing and tiling are
// deferred to the background compactor, so an insert is O(dims) plus one
// snapshot publish (plus, on a WAL-backed engine, one log append and a
// shared group-commit fsync), and in-flight queries are never blocked or
// perturbed. On a WAL-backed engine the call returns only once the record
// is committed per the sync policy; a durability failure returns ErrWAL.
func (e *Engine) Insert(p []float64) (int, error) { return e.insert(p, -1) }

// ErrIDExists reports an InsertWithID whose ID is not above the engine's ID
// space: the slot was already assigned. It is decided under the writer lock,
// so of two racing inserts under one ID exactly one gets it.
var ErrIDExists = errors.New("core: ID already within the indexed ID space")

// InsertWithID is Insert with a caller-assigned global ID, which must
// exceed every ID already indexed (else ErrIDExists) — a cluster's router
// assigns IDs this way so every partition's results carry cluster-wide IDs
// natively.
func (e *Engine) InsertWithID(id int, p []float64) error {
	if id < 0 || int64(id) > math.MaxInt32 {
		return fmt.Errorf("core: ID %d outside int32 range", id)
	}
	_, err := e.insert(p, id)
	return err
}

// insert is the write path behind both: id < 0 assigns the next ID. The
// mutation is applied and logged under the writer lock; durability is awaited
// after releasing it, so concurrent writers stack up in one commit window
// and share its fsync (group commit).
func (e *Engine) insert(p []float64, id int) (int, error) {
	if err := validRow(p, e.dims); err != nil {
		return 0, err
	}
	e.wrMu.Lock()
	cur := e.snap.Load()
	switch {
	case id < 0:
		if id = cur.total; int64(id) > math.MaxInt32 {
			e.wrMu.Unlock()
			return 0, fmt.Errorf("core: dataset ID space exhausted (%d rows)", id)
		}
	case id < cur.total:
		e.wrMu.Unlock()
		return 0, fmt.Errorf("%w (ID %d, space %d)", ErrIDExists, id, cur.total)
	}
	wait, err := e.logAndPublishInsert(cur, int32(id), p)
	memRows := len(e.snap.Load().memIDs)
	e.wrMu.Unlock()
	if err != nil {
		return 0, err
	}
	if memRows >= e.memSize {
		e.kickCompactor()
	}
	if wait != nil {
		if err := wait(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// logAndPublishInsert appends the insert's WAL record (if logging) and
// publishes the post-insert snapshot. On a WAL append failure nothing is
// published: the failed mutation is invisible, exactly as if it never
// happened. Caller holds wrMu and has validated the row.
func (e *Engine) logAndPublishInsert(cur *snapshot, id int32, p []float64) (CommitWait, error) {
	lsn := cur.walLSN
	var wait CommitWait
	if l := e.wal.Load(); l != nil {
		lsn++
		var err error
		if wait, err = l.appendInsert(lsn, int(id), p); err != nil {
			return nil, err
		}
	}
	e.publishInsert(cur, id, p, lsn)
	return wait, nil
}

// publishInsert builds and publishes the post-insert snapshot: the row goes
// into the next free slot of each memtable column, in a fresh block when the
// current one is full. Caller holds wrMu and has validated the row.
func (e *Engine) publishInsert(cur *snapshot, id int32, p []float64, lsn uint64) {
	n := len(cur.memIDs)
	cols, stride, _, _ := cur.layer(memSrc, e.dims)
	if n == stride {
		cols, stride = e.regrowCols(cols, stride, 0, n)
	}
	for d, v := range p {
		cols[d*stride+n] = v
	}
	ns := &snapshot{
		epoch:   cur.epoch + 1,
		segs:    cur.segs,
		tombs:   cur.tombs,
		memIDs:  append(cur.memIDs, id),
		memCols: cols,
		memDead: cur.memDead,
		total:   int(id) + 1,
		live:    cur.live + 1,
		walLSN:  lsn,
		minVal:  cur.minVal,
		maxVal:  cur.maxVal,
	}
	for d, c := range p {
		if c < ns.minVal[d] || c > ns.maxVal[d] {
			// Copy-on-widen: published snapshots keep their extrema.
			ns.minVal = append([]float64(nil), cur.minVal...)
			ns.maxVal = append([]float64(nil), cur.maxVal...)
			for dd, cc := range p {
				ns.minVal[dd] = math.Min(ns.minVal[dd], cc)
				ns.maxVal[dd] = math.Max(ns.maxVal[dd], cc)
			}
			break
		}
	}
	e.snap.Store(ns)
}

// regrowCols copies rows [lo, hi) of a memtable block into a fresh one of
// stride max(MemtableSize, 2·(hi−lo)), returning it and its stride.
// Published snapshots keep reading the old block; no writer touches it again.
func (e *Engine) regrowCols(cols []float64, stride, lo, hi int) ([]float64, int) {
	n := max(e.memSize, 2*(hi-lo))
	out := make([]float64, e.dims*n)
	for d := 0; d < e.dims; d++ {
		copy(out[d*n:], cols[d*stride+lo:d*stride+hi])
	}
	return out, n
}

// Remove deletes a point by dataset ID (tombstoning its row), reporting
// whether it was live. Sealed segments are never rewritten here: the
// tombstone masks the row at query time, and the compactor reclaims the
// space when the segment's dead fraction crosses its rewrite threshold.
// On a WAL-backed engine Remove waits for durability but drops the error;
// callers that must surface it (the serving layer) use RemoveDurable.
func (e *Engine) Remove(id int) bool {
	ok, _ := e.RemoveDurable(id)
	return ok
}

// RemoveDurable is Remove with the durability outcome: ok reports whether
// the row was live, err a WAL append or commit failure (ErrWAL). On an
// append failure the tombstone is not applied. A remove that found no live
// row logs nothing. Durability is awaited outside the writer lock, like
// insert.
func (e *Engine) RemoveDurable(id int) (bool, error) {
	e.wrMu.Lock()
	cur := e.snap.Load()
	seg, local, ok := cur.locate(id)
	if !ok || !cur.alive(seg, local) {
		e.wrMu.Unlock()
		return false, nil
	}
	lsn := cur.walLSN
	var wait CommitWait
	if l := e.wal.Load(); l != nil {
		lsn++
		var err error
		if wait, err = l.appendRemove(lsn, id); err != nil {
			e.wrMu.Unlock()
			return false, err
		}
	}
	e.removeLocked(cur, id, lsn)
	e.wrMu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// removeLocked publishes the post-remove snapshot for a row known present,
// reporting whether it was live (and therefore tombstoned). Caller holds
// wrMu.
func (e *Engine) removeLocked(cur *snapshot, id int, lsn uint64) bool {
	seg, local, ok := cur.locate(id)
	if !ok || !cur.alive(seg, local) {
		return false
	}
	ns := &snapshot{
		epoch: cur.epoch + 1,
		segs:  cur.segs, tombs: cur.tombs,
		memIDs: cur.memIDs, memCols: cur.memCols, memDead: cur.memDead,
		total: cur.total, live: cur.live - 1,
		walLSN: lsn,
		minVal: cur.minVal, maxVal: cur.maxVal,
	}
	if seg < 0 {
		ns.memDead = bitSetCopy(cur.memDead, local)
	} else {
		ns.tombs = append([][]uint64(nil), cur.tombs...)
		ns.tombs[seg] = bitSetCopy(cur.tombs[seg], local)
	}
	e.snap.Store(ns)
	return true
}

// Alive reports whether a dataset ID names a live (inserted, not removed)
// row in the engine's current snapshot.
func (e *Engine) Alive(id int) bool {
	sn := e.snap.Load()
	seg, local, ok := sn.locate(id)
	return ok && sn.alive(seg, local)
}
