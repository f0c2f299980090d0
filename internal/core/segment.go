package core

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"

	"repro/internal/dimlist"
	"repro/internal/query"
	"repro/internal/topk"
)

// layout is the engine's fixed subproblem structure, decided once at New from
// the build-time roles (and, for the data-dependent pairing strategies, the
// initial dataset) and shared by every sealed segment. Fixing the layout at
// the engine level — rather than re-deriving it per segment — is what keeps
// the per-shape plan cache valid across the whole segment stack: a plan's
// pair and lone indices name the same dimensions in every segment's trees.
type layout struct {
	pairs []Pair
	lone  []int
	// Adaptive grid structure (PairAdaptive within pairGridCap): see Engine.
	adaptive bool
	gridRep  []int
	gridAtt  []int
	gridPos  []int32 // dim → its row/column index (shared: roles disjoint)
}

// segment is one sealed, immutable layer of the engine: a dimension-major
// column block, the global dataset IDs of its rows (ascending), and the
// per-layout index structures built once over the segment's local row space.
// Columns — not rows — are the primary layout: the batch score kernels
// (internal/simd) sweep one dimension's contiguous values for a whole
// candidate batch, so the hot loop streams cache lines instead of striding
// through row-major padding, and tree/list builds slice their input columns
// straight out of the block with no per-dimension copy. Sealed segments are
// never mutated — removals tombstone rows in the owning snapshot, and
// compaction replaces whole segments — so queries walk them without any
// synchronization.
type segment struct {
	ids  []int32   // local row → global dataset ID, strictly ascending
	cols []float64 // dims × rows, dimension-major: column d = cols[d*rows:(d+1)*rows]
	rows int
	dims int

	// cols32 is the optional narrow sweep copy (Config.ColumnWidth 32): the
	// same dimension-major block quantized to float32. The batch kernel
	// sweeps it at half the memory bandwidth, and qerr[d] — the largest
	// |column value − widened float32| per dimension — pads the approximate
	// scores so candidates are only skipped when even the padded approximate
	// score cannot reach the k-th best; survivors are rescored exactly from
	// cols, so answers are byte-identical to a float64 engine. Both are nil
	// on (default) 64-bit engines.
	cols32 []float32
	qerr   []float64

	trees []*topk.Index   // fixed-pairing: parallel to layout.pairs
	grid  []*topk.Index   // adaptive: gridRep × gridAtt trees
	lists []*dimlist.List // parallel to layout.lone

	// structBytes caches the resident size of the index structures (trees,
	// grid, lists); they never change after the build, so Bytes() does not
	// re-walk them.
	structBytes int
}

// col returns dimension d's contiguous column.
func (s *segment) col(d int) []float64 { return s.cols[d*s.rows : (d+1)*s.rows] }

// copyRow gathers one local row's coordinates into dst (len ≥ dims) — the
// random-access path for callers that need a whole row (replication reads,
// compaction gathers); the query path never materializes rows.
func (s *segment) copyRow(local int, dst []float64) {
	for d := 0; d < s.dims; d++ {
		dst[d] = s.cols[d*s.rows+local]
	}
}

// scoreLocal computes one row's exact score from the float64 columns, in the
// same ascending-dimension order as the batch kernels and the old row-major
// kernel — bit-identical to both. It is the rescore path for candidates that
// survive the float32 pre-filter.
func (s *segment) scoreLocal(local int, qpt, signed []float64) float64 {
	var sc float64
	for d := 0; d < s.dims; d++ {
		sc += signed[d] * math.Abs(s.cols[d*s.rows+local]-qpt[d])
	}
	return sc
}

// transposeToCols converts a row-major block to the segment's dimension-major
// layout — the build-time bridge for data that arrives as rows (initial
// datasets, memtable seals, persisted v1/v2 files).
func transposeToCols(flat []float64, rows, dims int) []float64 {
	cols := make([]float64, rows*dims)
	for d := 0; d < dims; d++ {
		c := cols[d*rows : (d+1)*rows]
		for i := range c {
			c[i] = flat[i*dims+d]
		}
	}
	return cols
}

// buildSegment seals rows (cols, dimension-major, with their global IDs) into
// an immutable segment under the engine's layout, tree configuration, and
// column width. IDs must be strictly ascending. The segment's pair trees and
// sorted lists are independent builds over read-only columns; with a Runner
// configured (Config.Pool) each one is a task on it, so the bulk build,
// compaction, and Load all spread a segment's tree builds across the pool.
// An empty row set returns nil.
func (e *Engine) buildSegment(cols []float64, ids []int32) (*segment, error) {
	rows, dims, lo := len(ids), e.dims, &e.layout
	if rows == 0 {
		return nil, nil
	}
	s := &segment{ids: ids, cols: cols, rows: rows, dims: dims}
	if e.colWidth == 32 {
		s.cols32 = make([]float32, len(cols))
		s.qerr = make([]float64, dims)
		for d := 0; d < dims; d++ {
			var worst float64
			for i, v := range cols[d*rows : (d+1)*rows] {
				n := float32(v)
				s.cols32[d*rows+i] = n
				if q := math.Abs(v - float64(n)); q > worst {
					worst = q
				}
			}
			s.qerr[d] = worst
		}
	}
	// Trees and lists copy their input columns, so they can slice the block
	// directly — the throwaway per-dimension copies the row-major layout
	// forced are gone. Task i < len(trees) builds tree i (grid position
	// ri·|att|+ai on adaptive engines); the rest build the lone lists.
	var trees []*topk.Index
	pairOf := func(i int) (rep, attr int) { return lo.pairs[i].Rep, lo.pairs[i].Attr }
	if lo.adaptive {
		s.grid = make([]*topk.Index, len(lo.gridRep)*len(lo.gridAtt))
		trees = s.grid
		pairOf = func(i int) (int, int) { return lo.gridRep[i/len(lo.gridAtt)], lo.gridAtt[i%len(lo.gridAtt)] }
	} else {
		s.trees = make([]*topk.Index, len(lo.pairs))
		s.lists = make([]*dimlist.List, len(lo.lone))
		trees = s.trees
	}
	errs := make([]error, len(trees)+len(s.lists))
	build := func(i int) {
		if i >= len(trees) {
			s.lists[i-len(trees)] = dimlist.FromColumn(s.col(lo.lone[i-len(trees)]))
			return
		}
		r, a := pairOf(i)
		tree, err := topk.BuildColumns(s.col(a), s.col(r), e.treeCfg)
		if err != nil {
			errs[i] = fmt.Errorf("core: pair (%d, %d): %w", r, a, err)
			return
		}
		trees[i] = tree
	}
	if e.pool != nil {
		e.pool.Do(len(errs), build)
	} else {
		for i := range errs {
			build(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, t := range s.trees {
		s.structBytes += t.Bytes()
	}
	for _, t := range s.grid {
		s.structBytes += t.Bytes()
	}
	for _, l := range s.lists {
		s.structBytes += l.Len() * 12 // 8B value + 4B id per entry
	}
	return s, nil
}

// bytes is the segment's resident size: index structures plus the column
// block (and the narrow copy with its per-dimension error pads, when built),
// the global-ID map, and (caller-supplied) tombstone words.
func (s *segment) bytes(tombWords int) int {
	return s.structBytes + 8*len(s.cols) + 4*len(s.cols32) + 8*len(s.qerr) +
		4*len(s.ids) + 8*tombWords
}

// findLocal locates a global ID in the segment by binary search over the
// ascending ids, returning -1 when absent.
func (s *segment) findLocal(id int32) int {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.ids) && s.ids[lo] == id {
		return lo
	}
	return -1
}

// bitset helpers shared by segment tombstones and memtable dead sets. A nil
// bitset reads as all-alive; setBit copies on write (the COW discipline every
// published snapshot relies on), growing to cover the index.
func bitGet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

// bitSetCopy returns a copy of bits with bit i set, grown as needed. The
// input is never modified — snapshots holding it stay valid.
func bitSetCopy(bits []uint64, i int) []uint64 {
	need := i>>6 + 1
	out := make([]uint64, max(need, len(bits)))
	copy(out, bits)
	out[i>>6] |= 1 << (uint(i) & 63)
	return out
}

// popcount counts set bits — the tombstone density the compactor's
// dead-heavy rewrite policy consults.
func popcount(bits []uint64) int {
	n := 0
	for _, w := range bits {
		n += mathbits.OnesCount64(w)
	}
	return n
}

// makeLayout fixes the engine's subproblem structure from the build-time
// roles, falling back from the adaptive grid exactly as New always has. The
// data parameter feeds the data-dependent pairing strategies only; it may be
// empty, in which case PairByCorrelation and PairByVariance degrade to the
// in-order zip (their statistics are undefined on an empty set).
func makeLayout(data [][]float64, roles []query.Role, pairing Pairing) layout {
	var repulsive, attractive []int
	for d, r := range roles {
		switch r {
		case query.Repulsive:
			repulsive = append(repulsive, d)
		case query.Attractive:
			attractive = append(attractive, d)
		}
	}
	var lo layout
	if pairing == PairAdaptive {
		if len(repulsive) > 0 && len(attractive) > 0 &&
			len(repulsive)*len(attractive) <= pairGridCap {
			lo.adaptive = true
			lo.gridRep = repulsive
			lo.gridAtt = attractive
			lo.gridPos = make([]int32, len(roles))
			for i, d := range repulsive {
				lo.gridPos[d] = int32(i)
			}
			for i, d := range attractive {
				lo.gridPos[d] = int32(i)
			}
			return lo
		}
		// Degenerate or oversized grid: the adaptive planner has nothing to
		// choose from (or too much to index), so fall back to the fixed
		// in-order structure. Answers are identical either way.
		pairing = PairInOrder
	}
	if len(data) == 0 && (pairing == PairByCorrelation || pairing == PairByVariance) {
		pairing = PairInOrder
	}
	lo.pairs = makePairs(data, repulsive, attractive, pairing)
	paired := make(map[int]bool)
	for _, pr := range lo.pairs {
		paired[pr.Rep] = true
		paired[pr.Attr] = true
	}
	for _, d := range append(append([]int(nil), repulsive...), attractive...) {
		if !paired[d] {
			lo.lone = append(lo.lone, d)
		}
	}
	sort.Ints(lo.lone)
	return lo
}

// validRow rejects non-finite coordinates and dimension mismatches — the
// invariant every indexed row satisfies.
func validRow(p []float64, dims int) error {
	if len(p) != dims {
		return fmt.Errorf("core: point has %d dims, want %d", len(p), dims)
	}
	for d, c := range p {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("core: dim %d is %v", d, c)
		}
	}
	return nil
}
