package core

// Background compaction: the write path only ever appends to the memtable
// and flips tombstone bits, so index maintenance — sealing and tiling,
// dead-row reclamation — happens here, off both the insert and the
// query path. The compactor runs three policies, all expressed as one
// primitive (compactTail: seal the last nSegs segments plus a memtable
// prefix into one fresh segment):
//
//   - Seal: once the memtable reaches Config.MemtableSize rows, its rows
//     are frozen into a sealed segment, emptying the memtable.
//   - Fold: the stack keeps the invariant that each segment is at least
//     twice the size of its successor; a freshly sealed segment cascades
//     merges until the invariant holds, so the stack stays logarithmic in
//     the insert count and queries plan across O(log n) segments.
//   - Reclaim: a segment whose tombstone fraction crosses half is rewritten
//     (together with the stack suffix below it, preserving the global-ID
//     ordering invariant), dropping dead rows.
//
// Exactly one compaction step runs at a time (compactMu); steps build the
// replacement segment OUTSIDE any lock — concurrent queries keep answering
// from the old snapshot, concurrent inserts keep appending behind the
// sealed prefix — and only the final swap takes the writer mutex for a few
// pointer moves. Tombstones that land on a row while its new segment is
// being built are re-applied at swap time, so no Remove is ever lost.

// kickCompactor schedules a background compaction pass if one is not
// already running. Called by Insert past the memtable threshold; cheap
// enough to call spuriously.
func (e *Engine) kickCompactor() {
	if e.noCompact {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for {
			e.compactMu.Lock()
			e.compactSteps()
			e.maybeCheckpoint()
			e.compactMu.Unlock()
			e.compacting.Store(false)
			// Re-check after unpublishing: an Insert that crossed the
			// threshold between our last step and the Store above saw
			// compacting=true and skipped its kick — pick its work up
			// instead of leaving the memtable over threshold.
			if !e.needsCompaction() || !e.compacting.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// needsCompaction reports whether any policy has pending work.
func (e *Engine) needsCompaction() bool {
	if e.noCompact {
		return false
	}
	sn := e.snap.Load()
	return sn.memRows() >= e.memSize || e.foldableTail(sn) > 0
}

// foldableTail returns how many tail segments the fold and reclaim policies
// want merged (0 = none).
func (e *Engine) foldableTail(sn *snapshot) int {
	n := len(sn.segs)
	// Reclaim: rewrite from the shallowest dead-heavy segment to the end of
	// the stack (suffix-only rewrites keep segment ordinals and the
	// ascending global-ID invariant stable).
	for i := 0; i < n; i++ {
		if t := sn.tombs[i]; t != nil && 2*popcount(t) > sn.segs[i].rows {
			return n - i
		}
	}
	// Fold: restore the 2× size-ratio invariant — unless the merged segment
	// would break the row cap (segCap), which keeps the stack as wide as
	// Segments asks. A capped merge would be re-split by compactTail anyway,
	// so skipping it here avoids a fold/re-split livelock.
	if n >= 2 && sn.segs[n-2].rows < 2*sn.segs[n-1].rows {
		if c := e.segCap(sn.live); c == 0 || sn.segs[n-2].rows+sn.segs[n-1].rows <= c {
			return 2
		}
	}
	return 0
}

// compactSteps runs policy steps until none fires. Caller holds compactMu.
func (e *Engine) compactSteps() {
	for {
		sn := e.snap.Load()
		if m := sn.memRows(); m >= e.memSize {
			e.compactTail(0, m)
			continue
		}
		if k := e.foldableTail(sn); k > 0 {
			e.compactTail(k, 0)
			continue
		}
		return
	}
}

// Compact synchronously folds the engine's entire current contents — every
// sealed segment and the whole memtable — into a single fresh segment (or
// Config.Segments equal ones), dropping all tombstoned rows. Queries keep
// running throughout; rows inserted while Compact runs land in the memtable
// behind it. An engine that is already one segment, no tombstones and an
// empty memtable returns without rebuilding anything.
func (e *Engine) Compact() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	sn := e.snap.Load()
	if sn.memRows() == 0 && len(sn.segs) <= 1 &&
		(len(sn.segs) == 0 || sn.tombs[0] == nil) {
		return
	}
	e.compactTail(len(sn.segs), sn.memRows())
}

// compactTail seals the last nSegs sealed segments plus the first memUpto
// memtable rows into one replacement segment. Caller holds compactMu, so
// the segment stack cannot change underneath (only this goroutine replaces
// segments); the memtable may grow and tombstones may flip concurrently,
// which the swap step reconciles.
func (e *Engine) compactTail(nSegs, memUpto int) {
	sn := e.snap.Load()
	n := len(sn.segs)
	first := n - nSegs

	// Phase 1 (no locks): gather the live rows — in ascending global-ID
	// order, which the stack invariant reduces to concatenating each
	// segment's rows in ID order (byID) and the memtable's as they are —
	// and seal the replacement segments. The output is one segment, or
	// ⌈kept/cap⌉ equal chunks under the row cap (segCap); columns are
	// gathered dimension-major from the sources' column blocks, the
	// memtable's included.
	type src struct{ seg, local int32 }
	var kept []src
	var ids []int32
	d := e.dims
	gather := func(seg, upto int) {
		_, _, layerIDs, dead := sn.layer(seg, d)
		for r := 0; r < upto; r++ {
			l := r
			if seg >= 0 {
				l = int(sn.segs[seg].byID[r])
			}
			if !bitGet(dead, l) {
				kept = append(kept, src{int32(seg), int32(l)})
				ids = append(ids, layerIDs[l])
			}
		}
	}
	for si := first; si < n; si++ {
		gather(si, sn.segs[si].rows)
	}
	gather(memSrc, memUpto)
	nk := len(kept)
	nchunks := 1
	if c := e.segCap(sn.live); c > 0 && nk > c {
		nchunks = (nk + c - 1) / c
	}
	var builts []*segment
	if nk > 0 { // else nothing survived at all
		builts = e.sealAll(nchunks, func(ci int) ([]float64, []int32) {
			clo, chi := ci*nk/nchunks, (ci+1)*nk/nchunks
			rows := chi - clo
			cols := make([]float64, rows*d)
			for j, k := range kept[clo:chi] {
				from, stride, _, _ := sn.layer(int(k.seg), d)
				for dd := 0; dd < d; dd++ {
					cols[dd*rows+j] = from[dd*stride+int(k.local)]
				}
			}
			return cols, ids[clo:chi:chi]
		})
	}

	if h := e.builtHook; h != nil {
		h()
	}

	// Phase 2: swap. Re-apply tombstones that landed while we were
	// building, then publish the new stack. Chunk boundaries recompute with
	// the same arithmetic as the build above, so a kept row's tombstone
	// lands in the chunk that holds the row, at the local row its ID rank
	// was tiled to (byID).
	e.wrMu.Lock()
	cur := e.snap.Load()
	tombs := make([][]uint64, len(builts))
	if nk > 0 {
		for ci, built := range builts {
			clo, chi := ci*nk/nchunks, (ci+1)*nk/nchunks
			for j := clo; j < chi; j++ {
				if k := kept[j]; !cur.alive(int(k.seg), int(k.local)) {
					tombs[ci] = setBit(tombs[ci], int(built.byID[j-clo]), chi-clo)
				}
			}
			tombs[ci] = trimBits(tombs[ci])
		}
	}
	// The unsealed memtable tail moves to a fresh block, its columns starting
	// at slot 0 again; an empty tail holds none.
	var memCols []float64
	if m := cur.memRows(); m > memUpto {
		cols, stride, _, _ := cur.layer(memSrc, d)
		memCols, _ = e.regrowCols(cols, stride, memUpto, m)
	}
	ns := &snapshot{
		epoch:   cur.epoch + 1,
		segs:    append([]*segment(nil), cur.segs[:first]...),
		tombs:   append([][]uint64(nil), cur.tombs[:first]...),
		memIDs:  cur.memIDs[memUpto:],
		memCols: memCols,
		memDead: shiftBits(cur.memDead, memUpto, len(cur.memIDs)),
		total:   cur.total,
		live:    cur.live,
		walLSN:  cur.walLSN,
		minVal:  cur.minVal,
		maxVal:  cur.maxVal,
	}
	for ci, built := range builts {
		ns.segs = append(ns.segs, built)
		ns.tombs = append(ns.tombs, tombs[ci])
	}
	e.snap.Store(ns)
	e.wrMu.Unlock()
	e.compactions.Add(1)
	if l := e.wal.Load(); memUpto > 0 && l != nil {
		// Sealing memtable rows seals their log records' era too: rotate so
		// the next checkpoint (whose snapshot now carries those rows in a
		// sealed segment) can retire the closed file whole.
		l.rotate()
	}
}

// shiftBits re-bases a memtable tombstone bitset after the first `from` rows
// were sealed away: bit i of the result is bit from+i of the input,
// considering rows [from, total). Returns nil when no bit survives.
func shiftBits(bits []uint64, from, total int) []uint64 {
	var out []uint64
	for i := from; i < total; i++ {
		if bitGet(bits, i) {
			if out == nil {
				out = make([]uint64, (total-from+63)/64)
			}
			out[(i-from)>>6] |= 1 << (uint(i-from) & 63)
		}
	}
	return out
}
