package core

// Background compaction: the write path only ever appends to the memtable
// and flips tombstone bits, so index maintenance — tree builds, sorted-list
// builds, dead-row reclamation — happens here, off both the insert and the
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
//     ordering invariant), dropping dead rows and their index entries.
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
	// would break the configured row cap, which deliberately keeps the stack
	// wide (one segment is the unit of intra-query fan-out). A capped merge
	// would be re-split by compactTail anyway, so skipping it here avoids a
	// fold/re-split livelock.
	if n >= 2 && sn.segs[n-2].rows < 2*sn.segs[n-1].rows &&
		(e.maxSegRows == 0 || sn.segs[n-2].rows+sn.segs[n-1].rows <= e.maxSegRows) {
		return 2
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
// sealed segment and the whole memtable — into a single fresh segment,
// dropping all tombstoned rows. Queries keep running throughout; rows
// inserted while Compact runs land in the memtable behind it. An engine
// that is already fully compacted (one segment, no tombstones, empty
// memtable) returns without rebuilding anything.
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

// memSrc marks a kept row that came from the memtable (vs. a segment
// ordinal) in compactTail's provenance records.
const memSrc = -1

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
	// order, which the stack invariant reduces to simple concatenation —
	// and build the replacement segments' trees and lists. The output is
	// one segment, or ⌈kept/max⌉ equal chunks under a configured row cap;
	// columns are gathered dimension-major (source segments are already
	// columnar, memtable rows are transposed on the way through).
	type src struct{ seg, local int32 }
	var kept []src
	var ids []int32
	for si := first; si < n; si++ {
		s, tomb := sn.segs[si], sn.tombs[si]
		for l := 0; l < s.rows; l++ {
			if bitGet(tomb, l) {
				continue
			}
			kept = append(kept, src{int32(si), int32(l)})
			ids = append(ids, s.ids[l])
		}
	}
	d := e.dims
	for l := 0; l < memUpto; l++ {
		if bitGet(sn.memDead, l) {
			continue
		}
		kept = append(kept, src{memSrc, int32(l)})
		ids = append(ids, sn.memIDs[l])
	}
	nk := len(kept)
	nchunks := 1
	if e.maxSegRows > 0 && nk > e.maxSegRows {
		nchunks = (nk + e.maxSegRows - 1) / e.maxSegRows
	}
	var builts []*segment
	for ci := 0; ci < nchunks; ci++ {
		clo, chi := ci*nk/nchunks, (ci+1)*nk/nchunks
		rows := chi - clo
		if rows == 0 {
			continue // nothing survived at all
		}
		cols := make([]float64, rows*d)
		for dd := 0; dd < d; dd++ {
			c := cols[dd*rows : (dd+1)*rows]
			for j := range c {
				if k := kept[clo+j]; k.seg == memSrc {
					c[j] = sn.memFlat[int(k.local)*d+dd]
				} else {
					s := sn.segs[k.seg]
					c[j] = s.cols[dd*s.rows+int(k.local)]
				}
			}
		}
		built, err := e.buildSegment(cols, ids[clo:chi:chi])
		if err != nil {
			// Every row was validated at insert time; a build failure here is
			// a bug, but the safe reaction is to leave the current (correct,
			// just uncompacted) snapshot in place.
			return
		}
		builts = append(builts, built)
	}

	// Phase 2: swap. Re-apply tombstones that landed while we were
	// building, then publish the new stack. Chunk boundaries recompute with
	// the same arithmetic as the build above, so a kept row's tombstone
	// lands in the chunk that holds the row.
	e.wrMu.Lock()
	cur := e.snap.Load()
	tombs := make([][]uint64, len(builts))
	if nk > 0 {
		for ci := 0; ci < nchunks; ci++ {
			clo, chi := ci*nk/nchunks, (ci+1)*nk/nchunks
			for j := clo; j < chi; j++ {
				nowDead := false
				if k := kept[j]; k.seg == memSrc {
					nowDead = bitGet(cur.memDead, int(k.local))
				} else {
					nowDead = bitGet(cur.tombs[k.seg], int(k.local))
				}
				if nowDead {
					if tombs[ci] == nil {
						tombs[ci] = make([]uint64, (chi-clo+63)/64)
					}
					tombs[ci][(j-clo)>>6] |= 1 << (uint(j-clo) & 63)
				}
			}
		}
	}
	ns := &snapshot{
		epoch:   cur.epoch + 1,
		segs:    append([]*segment(nil), cur.segs[:first]...),
		tombs:   append([][]uint64(nil), cur.tombs[:first]...),
		memIDs:  cur.memIDs[memUpto:],
		memFlat: cur.memFlat[memUpto*d:],
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
	if memUpto > 0 && e.wal != nil {
		// Sealing memtable rows seals their log records' era too: rotate so
		// the next checkpoint (whose snapshot now carries those rows in a
		// sealed segment) can retire the closed file whole.
		e.wal.rotate()
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
