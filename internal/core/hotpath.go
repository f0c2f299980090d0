package core

import (
	"fmt"
	"math"

	"repro/internal/dimlist"
	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/query"
	"repro/internal/simd"
	"repro/internal/topk"
)

// maxBatch is the widest per-subproblem bulk fetch: the engine's leaf-cursor
// cap, so one adaptive batch can drain a whole packed leaf run.
const maxBatch = 64

// subproblem is one term of Eqn. 10 evaluated over one sealed segment: an
// iterator over the segment's points in decreasing contribution order plus
// an upper bound on the contribution of any point it has not yet produced.
// The contract is batch-oriented: nextBatch fills dst with up to len(dst)
// emissions per call (0 when exhausted) and returns the post-batch frontier
// bound, so the aggregation loop pays one virtual dispatch per run instead
// of per point; bound peeks the same value without fetching, which the
// bound-driven scheduler uses to seed its ordering before the first access.
// Emission IDs are segment-local rows; the aggregation translates them to
// global dataset IDs through the segment's ID map.
type subproblem interface {
	nextBatch(dst []query.Emission) (n int, bound float64)
	bound() float64
}

// pairSub adapts a 2D §4 stream. The Stream is stored by value so a pooled
// query context reuses its cursor, merge, and heap storage across queries.
type pairSub struct {
	st topk.Stream
}

func (p *pairSub) nextBatch(dst []query.Emission) (int, float64) { return p.st.NextBatch(dst) }

func (p *pairSub) bound() float64 {
	if sc, ok := p.st.PeekScore(); ok {
		return sc
	}
	return math.Inf(-1)
}

// dimSub adapts a 1D sorted-list iterator, also stored by value.
type dimSub struct {
	it dimlist.Iter
}

func (d *dimSub) nextBatch(dst []query.Emission) (int, float64) { return d.it.NextBatch(dst) }

func (d *dimSub) bound() float64 { return d.it.Bound() }

// subRef carries the per-subproblem segment context the aggregation needs at
// emission time: the owning segment (ID translation, random-access rows),
// its snapshot tombstones, and its ordinal in the snapshot stack (the
// scheduler groups sibling bounds per segment).
type subRef struct {
	seg  *segment
	tomb []uint64
	ord  int32
}

// intAscending is the collector's tie order (ascending global dataset ID),
// shared so pooled collectors carry no per-query closure.
func intAscending(a, b int) bool { return a < b }

// queryCtx is the pooled per-query state of TopKAppend: weights, signed
// weights, subproblem storage, frontier bounds, batch sizes, per-segment
// sums and pads, the emission buffer, the seen bitset, the collector with
// its drain buffer, and the scratch plan for shapes the engine's plan cache
// does not cover. One context cycles through queries via the engine's
// sync.Pool; on a compacted engine (one sealed segment, empty memtable) a
// warm context replays queries with zero heap allocations.
type queryCtx struct {
	e      *Engine
	sn     *snapshot // the query's frozen epoch
	w      []float64 // effective weights under build-time roles
	signed []float64 // +w repulsive / −w attractive, folding the role branch

	pairSubs []pairSub // value storage; subs holds pointers into it
	dimSubs  []dimSub
	nPair    int // pairSubs in use (their streams need closing)
	nDim     int
	subs     []subproblem
	refs     []subRef // parallel to subs

	bounds  []float64
	bsize   []int
	rate    []float64 // measured frontier descent per access (scheduler.go)
	anchorB []float64 // bound at the start of the current rate window
	sinceN  []int     // accesses accumulated in the current rate window

	segSum  []float64 // per-segment Σ bounds (scheduler scratch)
	segPad  []float64 // per-segment float-error pad
	segDone []bool    // segment fully enumerated (one sub exhausted)

	emit [maxBatch]query.Emission
	// Candidate batch scratch: runBatch defers the emissions that survive its
	// masks and prune to these arrays and scores the whole batch with one
	// column-sweep kernel call instead of a strided per-row loop.
	candRow   [maxBatch]int32
	candGID   [maxBatch]int32
	candScore [maxBatch]float64
	seen      []uint64 // bitset over global dataset IDs
	coll      *pq.TopK[int]
	drain     []pq.Scored[int]
	scratch   queryPlan // plan storage for uncached shapes
	sortRep   []int32   // adaptive planner scratch: active dims by weight
	sortAtt   []int32

	// done is the query's optional cancellation signal (a context's Done
	// channel on the serving path); nil means the query runs to completion.
	// The scheduler loops poll it once per scheduling step, so cancellation
	// latency is one adaptive batch (≤ maxBatch sorted accesses), and the
	// context is released back to the pool on every exit path — a cancelled
	// query leaks no pooled buffers.
	done     <-chan struct{}
	canceled bool

	// Intra-query parallel state (parallel.go). floor is set only while the
	// context runs as one segment's task of a parallel query: both scheduler
	// loops then prune and terminate against max(local k-th best, floor).
	// The remaining fields belong to the parent: floorStore is the query's
	// shared floor, parPl/parSpec stage the plan for the segment tasks, the
	// kid* arrays collect per-task contexts, stats, and errors, and parFn is
	// the method value handed to the Runner — bound once at pool-construction
	// time so dispatching a parallel query allocates nothing.
	floor      *qfloor
	floorStore qfloor
	parPl      *queryPlan
	parSpec    query.Spec
	kidCtx     []*queryCtx
	kidStats   []Stats
	kidErr     []error
	parFn      func(i int)
}

// initCtxPool wires the engine's context pool; called once at build time,
// after the layout is fixed.
func (e *Engine) initCtxPool() {
	e.ctxPool.New = func() any {
		c := &queryCtx{
			e:       e,
			w:       make([]float64, e.dims),
			signed:  make([]float64, e.dims),
			coll:    pq.NewTopKOrdered[int](1, intAscending),
			sortRep: make([]int32, 0, len(e.layout.gridRep)),
			sortAtt: make([]int32, 0, len(e.layout.gridAtt)),
		}
		c.parFn = c.runKid
		return c
	}
}

// subsPerSegment is the worst-case subproblem count one segment contributes
// under the engine's layout.
func (e *Engine) subsPerSegment() (npair, ndim int) {
	lo := &e.layout
	if lo.adaptive {
		// Matched pairs plus degenerate leftovers never exceed the larger
		// active role set.
		npair = len(lo.gridRep)
		if len(lo.gridAtt) > npair {
			npair = len(lo.gridAtt)
		}
		return npair, 0
	}
	return len(lo.pairs), len(lo.lone)
}

// getCtx acquires a context sized for the given snapshot: the pooled bitset
// covers the snapshot's whole global ID space, and the subproblem and
// scheduler arrays cover every segment in the stack. Pooled capacity is kept
// across queries, so in steady state (a stable segment count) nothing here
// allocates.
func (e *Engine) getCtx(sn *snapshot) *queryCtx {
	c := e.ctxPool.Get().(*queryCtx)
	c.sn = sn
	if need := (sn.total + 63) / 64; len(c.seen) < need {
		c.seen = make([]uint64, need)
	}
	npair, ndim := e.subsPerSegment()
	nseg := len(sn.segs)
	for len(c.pairSubs) < npair*nseg {
		c.pairSubs = append(c.pairSubs, pairSub{})
	}
	for len(c.dimSubs) < ndim*nseg {
		c.dimSubs = append(c.dimSubs, dimSub{})
	}
	nsub := (npair + ndim) * nseg
	if cap(c.bounds) < nsub {
		c.bounds = make([]float64, nsub)
		c.bsize = make([]int, nsub)
		c.rate = make([]float64, nsub)
		c.anchorB = make([]float64, nsub)
		c.sinceN = make([]int, nsub)
	}
	if cap(c.segSum) < nseg {
		c.segSum = make([]float64, nseg)
		c.segPad = make([]float64, nseg)
		c.segDone = make([]bool, nseg)
	}
	return c
}

// putCtx releases per-query resources (stream heaps back to their pool, the
// bitset cleared) and returns the context.
func (e *Engine) putCtx(c *queryCtx) {
	for i := 0; i < c.nPair; i++ {
		c.pairSubs[i].st.Close()
	}
	c.nPair, c.nDim = 0, 0
	c.subs = c.subs[:0]
	c.refs = c.refs[:0]
	c.sn = nil
	c.done, c.canceled = nil, false // never pin a request's Done channel
	c.floor = nil
	clear(c.seen)
	e.ctxPool.Put(c)
}

// markSeen reports "newly seen" for a global dataset ID. Every emission's ID
// is below the snapshot's total, which the bitset covers by construction.
func (c *queryCtx) markSeen(id int32) bool {
	w := int(id) >> 6
	b := uint64(1) << (uint(id) & 63)
	if c.seen[w]&b != 0 {
		return false
	}
	c.seen[w] |= b
	return true
}

// TopKAppend is TopKWithStats appending into dst: with a caller-reused dst
// the steady-state query path performs no allocation. Results are appended
// best-first; dst's existing elements are preserved.
//
// The flow is snapshot, plan, build, schedule: one atomic load freezes the
// engine's segment stack (no lock is taken anywhere on this path), the
// query's shape resolves to a plan (usually a cache hit — see plan.go)
// naming the surviving subproblems, the plan's subproblems are bound to
// every sealed segment, the memtable's rows are scored exactly up front,
// and the engine's configured scheduler (scheduler.go) drives the §5
// aggregation to the exact answer.
func (e *Engine) TopKAppend(dst []query.Result, spec query.Spec) ([]query.Result, Stats, error) {
	return e.topKAppendAt(e.snap.Load(), dst, spec, nil, false)
}

// TopKAppendCancel is TopKAppend with a cancellation signal: when done is
// closed, the aggregation stops at its next scheduling step — at most one
// adaptive batch of sorted accesses later — releases every pooled resource,
// and returns ErrCanceled. A nil done behaves exactly like TopKAppend (the
// zero-allocation hot path is unchanged; the poll is nil-guarded). This is
// the deadline plumbing the serving layer's per-request timeouts stand on.
func (e *Engine) TopKAppendCancel(dst []query.Result, spec query.Spec, done <-chan struct{}) ([]query.Result, Stats, error) {
	return e.topKAppendAt(e.snap.Load(), dst, spec, done, false)
}

// topKAppendAt is TopKAppend evaluated at a pinned snapshot (the View query
// path and the default path share it). seq keeps the aggregation on the
// caller's goroutine even when the engine has a Runner (View.Sequential).
func (e *Engine) topKAppendAt(sn *snapshot, dst []query.Result, spec query.Spec, done <-chan struct{}, seq bool) ([]query.Result, Stats, error) {
	var stats Stats
	if err := spec.Validate(e.dims); err != nil {
		return dst, stats, err
	}
	c := e.getCtx(sn)
	defer e.putCtx(c)
	c.done = done
	if c.pollCancel() { // already-cancelled requests pay for nothing
		return dst, stats, ErrCanceled
	}

	pl, hit := e.planFor(spec, &c.scratch)
	if pl.err != nil {
		return dst, stats, pl.err
	}
	if hit {
		stats.PlanCacheHits = 1
	}
	clear(c.w)
	clear(c.signed)
	for _, ad := range pl.active {
		w := spec.Weights[ad.d]
		c.w[ad.d] = w
		c.signed[ad.d] = float64(ad.sign) * w
	}

	// Ties are broken by ascending global dataset ID, exactly like the
	// sequential scan: every engine answer is then byte-identical to the
	// oracle's, and per-partition answers merge into the exact global top-k.
	coll := c.coll
	coll.Reset(spec.K)
	stats.Segments = len(sn.segs)
	if len(pl.active) == 0 {
		// Every active dimension weighs zero: all live points tie at 0.
		for si, seg := range sn.segs {
			tomb := sn.tombs[si]
			for l := 0; l < seg.rows; l++ {
				if !bitGet(tomb, l) {
					coll.Add(int(seg.ids[l]), 0)
				}
			}
		}
		for i, id := range sn.memIDs {
			if !bitGet(sn.memDead, i) {
				coll.Add(int(id), 0)
			}
		}
		return c.appendResults(dst), stats, nil
	}

	// Bind the plan's subproblems to every sealed segment. pad bounds the
	// absolute floating-point error between a pair stream's emitted
	// scores/bounds (computed in normalized projection space and rescaled)
	// and the exact contribution α·|Δy| − β·|Δx| the random-access rescoring
	// uses. Points are only discarded, and iteration only stopped, when they
	// are worse than the k-th best by more than this pad — so a point in an
	// exact tie at the k-th rank can never be lost to an ulp of projection
	// arithmetic, and answers stay byte-identical to the scan oracle. The 1D
	// list subproblems emit exact contributions, but they still contribute
	// their weighted reach to the pad: the prune and retirement tests sum
	// contributions and sibling bounds in SUBPROBLEM order, which rounds
	// differently than the score kernel's dimension-order sum — on an exact
	// tie at the k-th rank that one-ulp difference is enough to discard a
	// point the oracle keeps (found by fuzzing; regression seed
	// testdata/fuzz/FuzzTopKChurn/89b7ba70eb2254e4). floatSlack times the
	// summed weighted reach budgets the whole summation chain with orders
	// of magnitude to spare. Pads are tracked per segment: a point's
	// unknown contributions come only from its own segment's subproblems.
	par := e.pool != nil && !seq && len(sn.segs) > 1
	if !par {
		for s := 0; s < len(sn.segs); s++ {
			c.segPad[s] = 0
		}
		c.prepSubs(pl)
		for si := range sn.segs {
			if err := c.buildSegSubs(pl, spec, si); err != nil {
				return dst, stats, err
			}
		}
	}

	// The memtable is scored exactly, up front: its rows are few (bounded by
	// the compaction threshold), they live in no index structure, and
	// seeding the collector with their exact scores only tightens the
	// threshold the segment aggregation prunes against. Scoring runs through
	// the same unrolled batch kernel as the sealed segments (in row-major
	// form — the memtable is append-oriented), a block at a time through the
	// pooled candidate scratch; dead rows are skipped at collection, so
	// scoring them costs arithmetic but never correctness.
	d := e.dims
	for base := 0; base < len(sn.memIDs); base += maxBatch {
		nb := len(sn.memIDs) - base
		if nb > maxBatch {
			nb = maxBatch
		}
		scores := c.candScore[:nb]
		simd.ScoreRows(scores, sn.memFlat[base*d:(base+nb)*d], d, spec.Point, c.signed)
		for i := 0; i < nb; i++ {
			if bitGet(sn.memDead, base+i) {
				continue
			}
			stats.Scored++
			coll.Add(int(sn.memIDs[base+i]), scores[i])
		}
	}

	if par {
		if err := c.runParallel(pl, spec, &stats); err != nil {
			return dst, stats, err
		}
	} else {
		stats.Subproblems = len(c.subs)
		if len(c.subs) > 0 {
			if e.sched == SchedRoundRobin {
				c.runRoundRobin(spec.Point, &stats)
			} else {
				c.runBoundDriven(spec.Point, &stats)
			}
		}
	}
	if c.canceled {
		// The partial collector state is meaningless to the caller; the
		// deferred putCtx still closes every stream and returns the context
		// to the pool, so cancellation leaks nothing.
		return dst, stats, ErrCanceled
	}
	return c.appendResults(dst), stats, nil
}

// addPairSub binds one 2D subproblem — tree, dimension pair, weights — into
// the context, accumulating its float-pad reach terms into the owning
// segment's pad. Degenerate pairs (one zero weight) are valid: they
// enumerate a single dimension's frontier through the same tree, which is
// how adaptive engines run leftover dimensions without sorted lists.
func (c *queryCtx) addPairSub(tree *topk.Index, ref subRef, rep, attr int, wr, wa float64, qpt []float64) error {
	q2 := geom.Point{X: qpt[attr], Y: qpt[rep]}
	ps := &c.pairSubs[c.nPair]
	if err := tree.StreamInto(&ps.st, q2, wr, wa); err != nil {
		return fmt.Errorf("core: pair (%d, %d): %w", rep, attr, err)
	}
	c.nPair++
	c.segPad[ref.ord] += floatSlack * (wr*c.sn.reach(rep, qpt[rep]) + wa*c.sn.reach(attr, qpt[attr]))
	c.subs = append(c.subs, ps)
	c.refs = append(c.refs, ref)
	return nil
}

// prepSubs computes the per-query, segment-independent part of subproblem
// binding. On adaptive layouts that is the plan-time bijection: the active
// dimensions of each role are sorted by descending weight (ties to the lower
// dimension, so the schedule is deterministic), to be zipped
// strongest-with-strongest by buildSegSubs. Matching strong with strong makes
// each matched pair's frontier fall steeply — measured on the evaluation
// workload, the access floor of this zip is within ~1.5% of the per-query
// optimal bijection. Fixed layouts need no preparation.
func (c *queryCtx) prepSubs(pl *queryPlan) {
	if !c.e.layout.adaptive {
		return
	}
	rep := append(c.sortRep[:0], pl.activeRep...)
	att := append(c.sortAtt[:0], pl.activeAtt...)
	c.sortRep, c.sortAtt = rep, att // keep grown capacity pooled
	sortByWeightDesc(rep, c.w)
	sortByWeightDesc(att, c.w)
}

// buildSegSubs binds the plan's subproblems to one sealed segment,
// accumulating that segment's float-error pad. Callers run prepSubs first.
// The split into prepare-once and bind-per-segment is what lets a parallel
// query's segment tasks each bind exactly their own segment (parallel.go)
// while the sequential path loops over the stack.
//
// Adaptive layouts zip the sorted role lists strongest-with-strongest;
// leftover dimensions of the longer side run as degenerate pairs with a zero
// weight on the missing role, reusing the first grid dimension of that role
// purely as tree storage.
func (c *queryCtx) buildSegSubs(pl *queryPlan, spec query.Spec, si int) error {
	e := c.e
	seg := c.sn.segs[si]
	ref := subRef{seg: seg, tomb: c.sn.tombs[si], ord: int32(si)}
	if !e.layout.adaptive {
		for _, pi := range pl.pairs {
			pr := e.layout.pairs[pi]
			if err := c.addPairSub(seg.trees[pi], ref, pr.Rep, pr.Attr, c.w[pr.Rep], c.w[pr.Attr], spec.Point); err != nil {
				return err
			}
		}
		for _, li := range pl.lone {
			d := e.layout.lone[li]
			ds := &c.dimSubs[c.nDim]
			c.nDim++
			seg.lists[li].InitIter(&ds.it, spec.Point[d], c.w[d], e.roles[d] == query.Attractive)
			c.segPad[ref.ord] += floatSlack * c.w[d] * c.sn.reach(d, spec.Point[d])
			c.subs = append(c.subs, ds)
			c.refs = append(c.refs, ref)
		}
		return nil
	}
	lo := &e.layout
	rep, att := c.sortRep, c.sortAtt
	m := len(rep)
	if len(att) < m {
		m = len(att)
	}
	na := len(lo.gridAtt)
	for i := 0; i < m; i++ {
		r, a := int(rep[i]), int(att[i])
		tree := seg.grid[int(lo.gridPos[r])*na+int(lo.gridPos[a])]
		if err := c.addPairSub(tree, ref, r, a, c.w[r], c.w[a], spec.Point); err != nil {
			return err
		}
	}
	for _, ri := range rep[m:] {
		r, a := int(ri), lo.gridAtt[0]
		tree := seg.grid[int(lo.gridPos[r])*na+0]
		if err := c.addPairSub(tree, ref, r, a, c.w[r], 0, spec.Point); err != nil {
			return err
		}
	}
	for _, ai := range att[m:] {
		r, a := lo.gridRep[0], int(ai)
		tree := seg.grid[0*na+int(lo.gridPos[a])]
		if err := c.addPairSub(tree, ref, r, a, 0, c.w[a], spec.Point); err != nil {
			return err
		}
	}
	return nil
}

// sortByWeightDesc orders dims by descending w[d], breaking ties toward the
// lower dimension index. Insertion sort: the lists are tiny (≤ the role-set
// size) and the scratch is pooled, so this is allocation-free.
func sortByWeightDesc(dims []int32, w []float64) {
	for i := 1; i < len(dims); i++ {
		d := dims[i]
		wd := w[d]
		j := i
		for j > 0 && (w[dims[j-1]] < wd || (w[dims[j-1]] == wd && dims[j-1] > d)) {
			dims[j] = dims[j-1]
			j--
		}
		dims[j] = d
	}
}

// appendResults drains the collector into dst best-first via the pooled
// drain buffer.
func (c *queryCtx) appendResults(dst []query.Result) []query.Result {
	c.drain = c.coll.DrainInto(c.drain[:0])
	for _, s := range c.drain {
		dst = append(dst, query.Result{ID: s.Item, Score: s.Score})
	}
	return dst
}
