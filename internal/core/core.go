// Package core implements the paper's §5 multi-dimensional SD-Query engine —
// the SD-Index proper. The query's repulsive dimensions D and attractive
// dimensions S are paired into min(|D|, |S|) two-dimensional subproblems
// (Eqn. 10), each answered incrementally by a §4 top-k tree; leftover
// dimensions become 1D subproblems over sorted lists with bidirectional
// frontiers. A Threshold-Algorithm aggregation fetches the next best point
// of every subproblem per round, scores fetched points exactly by random
// access, and stops once the k-th best exact score reaches the sum of the
// per-subproblem frontier bounds.
//
// Storage architecture: the engine is an epoch-versioned stack of immutable
// sealed segments — flat data, per-pair trees, sorted lists, built once and
// never mutated — plus a small mutable memtable absorbing recent Inserts.
// Queries acquire a copy-on-write snapshot with one atomic load and hold no
// lock at all: every sealed segment contributes its subproblem streams to
// the §5 aggregation (tombstones mask removed rows at emission), and the
// memtable's few rows are scored exactly up front. A background compactor
// seals the memtable into a segment past a size threshold and folds small
// segments together, amortizing tree builds off both the query and the
// insert path. Sealed segments serialize to a versioned binary format
// (Save / Load), so a persisted index restarts without rebuilding.
//
// The granularity of the subproblems — two dimensions instead of TA's one —
// is the source of the paper's reported speedups and dimension scalability.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/topk"
)

// ErrCanceled is returned by the cancellation-aware query paths
// (TopKAppendCancel) when the caller's done channel closes before the
// aggregation terminates. The public API wrappers translate it into the
// originating context's error.
var ErrCanceled = errors.New("core: query canceled")

// ErrIDExists is returned by InsertWithID when the caller-assigned ID is not
// above the engine's indexed ID space: the slot was already assigned.
var ErrIDExists = errors.New("core: ID already within the indexed ID space")

// Pairing selects the strategy mapping repulsive to attractive dimensions
// (the bijection f of Eqn. 10).
type Pairing int

const (
	// PairAdaptive (the default) defers the bijection to query time: the
	// engine indexes the full repulsive × attractive pair-tree grid (within
	// pairGridCap) and the planner zips the active dimensions of each role
	// in descending weight order per query — the strongest α with the
	// strongest β, and so on. Matching strong with strong makes each pair's
	// frontier bound fall steeply (the large β erodes the large α's bound),
	// which is what the Threshold-Algorithm aggregation converges on; on
	// the evaluation workload the measured access floor of weight-sorted
	// pairing is within ~1.5% of the per-query optimal bijection, against
	// ~20% above it for the fixed in-order zip. This is the guided mapping
	// the paper's future-work section asks about, made affordable by plan-
	// time selection. Beyond pairGridCap — or when a role set is empty at
	// build — the engine falls back to PairInOrder's fixed structure.
	PairAdaptive Pairing = iota
	// PairInOrder zips D and S in index order — the paper's "arbitrary"
	// mapping.
	PairInOrder
	// PairByCorrelation greedily pairs the most strongly correlated
	// (repulsive, attractive) dimensions first at build time.
	PairByCorrelation
	// PairByVariance pairs dimensions by descending variance rank.
	PairByVariance
	// PairNone builds no 2D subproblems; every dimension is solved alone.
	// The engine then degenerates into the adapted Threshold Algorithm —
	// the paper's observation for 0 attractive dimensions, exposed as an
	// explicit ablation.
	PairNone
)

// pairGridCap bounds the adaptive pair-tree grid: |D| × |S| trees are built
// only up to this many (each tree is O(n) memory), past which PairAdaptive
// falls back to the fixed in-order zip.
const pairGridCap = 32

// defaultMemtableSize is the memtable row count past which the background
// compactor seals it into a segment. Small enough that the per-query exact
// scan of the memtable stays a rounding error next to the indexed
// subproblems, large enough that tree builds amortize over many inserts.
const defaultMemtableSize = 1024

// String names the strategy.
func (p Pairing) String() string {
	switch p {
	case PairAdaptive:
		return "adaptive"
	case PairInOrder:
		return "in-order"
	case PairByCorrelation:
		return "by-correlation"
	case PairByVariance:
		return "by-variance"
	case PairNone:
		return "none"
	}
	return fmt.Sprintf("Pairing(%d)", int(p))
}

// Pair is one 2D subproblem: the repulsive dimension is the tree's y axis,
// the attractive one its x axis.
type Pair struct {
	Rep, Attr int
}

// Config controls engine construction.
type Config struct {
	// Roles fixes each dimension's role at build time (the evaluation's
	// setting; the per-pair trees depend on it). Queries may demote an
	// active dimension to Ignored but may not flip roles.
	Roles []query.Role
	// Pairing selects the dimension-mapping strategy. Default PairAdaptive.
	Pairing Pairing
	// Tree configures the per-pair §4 indexes.
	Tree topk.Config
	// Scheduler selects the sorted-access order of the §5 aggregation.
	// Default SchedBoundDriven; SchedRoundRobin is the pre-scheduler
	// behaviour, kept as an ablation. Answers are identical either way.
	Scheduler Scheduler
	// DisablePlanCache turns off the per-engine query-plan cache (plan.go),
	// deriving every query's plan from scratch — the ablation baseline for
	// the cache's hit-rate statistics.
	DisablePlanCache bool
	// MemtableSize is the memtable row count past which the background
	// compactor seals it into an immutable segment. Default 1024.
	MemtableSize int
	// DisableCompaction turns the background compactor off entirely: the
	// memtable grows without bound (queries stay correct, scanning it
	// exactly) and segments are only ever folded by an explicit Compact.
	DisableCompaction bool
	// ColumnWidth selects the sealed segments' sweep-column precision: 0 or
	// 64 stores float64 columns only (the default); 32 additionally stores a
	// float32 copy the batch score kernel sweeps at half the memory
	// bandwidth, with per-dimension quantization pads guaranteeing that
	// candidates are skipped only when even the padded approximate score
	// cannot reach the k-th best — survivors are rescored from the float64
	// columns, so answers are byte-identical at either width.
	ColumnWidth int
	// MaxSegmentRows caps the rows of any sealed segment: the initial build
	// splits the dataset into ⌈n/max⌉ equal segments and compaction never
	// folds segments into an output larger than the cap. 0 (the default)
	// leaves segment sizing to the compactor's 2× stack invariant. The cap
	// exists for intra-query parallelism (see Config.Pool): one segment is
	// the unit of fan-out, so a capped stack gives one query enough segments
	// to spread across cores.
	MaxSegmentRows int
	// Pool, when non-nil, fans the sealed segments of a single query out to
	// the supplied runner (one task per segment, each running the full
	// scheduler loop over that segment's subproblems with a shared
	// termination-threshold floor), merging the per-segment candidates
	// deterministically. Answers are byte-identical to sequential execution;
	// only the Stats trace varies with timing. Nil (the default) keeps the
	// fully sequential, deterministic-stats path.
	Pool Runner
	// WAL, when non-nil, makes every mutation durable: Insert and Remove
	// append checksummed records to a per-engine log before publishing, and
	// Open replays the tail over the last checkpoint after a crash. See
	// wal.go.
	WAL *WALConfig
}

// Engine is the SD-Index. All read paths (TopK and friends, Len, Bytes,
// View) are lock-free: they load the current snapshot with a single atomic
// pointer load. Insert, Remove, and compaction serialize among themselves
// on internal mutexes and publish new snapshots; they never block readers.
type Engine struct {
	dims    int
	roles   []query.Role
	pairing Pairing // requested strategy (data layout may have fallen back)
	layout  layout
	treeCfg topk.Config
	sched   Scheduler

	// snap is the engine's current epoch. Queries, Len, and Bytes read it
	// with one atomic load; writers build a successor and Store it.
	snap atomic.Pointer[snapshot]

	// wrMu serializes snapshot publication (Insert, Remove, compactor
	// swaps). It is never taken on a read path.
	wrMu sync.Mutex

	// Compaction state — see compact.go.
	compactMu   sync.Mutex
	compacting  atomic.Bool
	compactions atomic.Uint64 // completed seal/fold/reclaim steps, for ops telemetry
	memSize     int
	noCompact   bool

	colWidth   int    // sealed-segment sweep precision: 64, or 32 for the narrow copy
	maxSegRows int    // sealed-segment row cap, 0 = unbounded
	pool       Runner // intra-query segment fan-out, nil = sequential

	// wal is the engine's write-ahead log, nil when durability is off —
	// see wal.go. Mutations append to it under wrMu and wait for the group
	// commit outside it.
	wal *walLog

	ctxPool sync.Pool // *queryCtx — see hotpath.go

	// Plan cache (plan.go): immutable per-shape plans behind an atomic
	// pointer to a copy-on-write map, shared by every pooled query context.
	// Plans depend only on the build-time layout and roles — which never
	// change after New — so Insert, Remove, and compaction need no
	// invalidation.
	noPlanCache bool
	planMu      sync.Mutex
	plans       atomic.Pointer[map[uint64]*queryPlan]
}

// New builds the SD-Index over the dataset, sealing it into the engine's
// first immutable segment. The dimensionality is len(cfg.Roles); every row
// must match it.
func New(data [][]float64, cfg Config) (*Engine, error) {
	ids := make([]int32, len(data))
	for i := range ids {
		ids[i] = int32(i)
	}
	return NewWithIDs(data, ids, cfg)
}

// NewWithIDs is New with caller-assigned global dataset IDs (strictly
// ascending). A cluster partition is built this way, so its results — and
// its ascending-ID tie-break — are in terms of the cluster-wide ID space.
func NewWithIDs(data [][]float64, ids []int32, cfg Config) (*Engine, error) {
	dims := len(cfg.Roles)
	if len(ids) != len(data) {
		return nil, fmt.Errorf("core: %d ids for %d rows", len(ids), len(data))
	}
	for i, p := range data {
		if err := validRow(p, dims); err != nil {
			return nil, fmt.Errorf("core: point %d: %w", i, err)
		}
		if ids[i] < 0 || (i > 0 && ids[i] <= ids[i-1]) {
			return nil, fmt.Errorf("core: ids must be ascending and non-negative (id %d at row %d)", ids[i], i)
		}
	}
	for _, r := range cfg.Roles {
		switch r {
		case query.Repulsive, query.Attractive, query.Ignored:
		default:
			return nil, fmt.Errorf("core: unknown role %d", r)
		}
	}
	if !cfg.Scheduler.valid() {
		return nil, fmt.Errorf("core: unknown scheduler %v", cfg.Scheduler)
	}
	if cfg.MemtableSize <= 0 {
		cfg.MemtableSize = defaultMemtableSize
	}
	if cfg.ColumnWidth == 0 {
		cfg.ColumnWidth = 64
	}
	if cfg.ColumnWidth != 32 && cfg.ColumnWidth != 64 {
		return nil, fmt.Errorf("core: unsupported column width %d (want 32 or 64)", cfg.ColumnWidth)
	}
	if cfg.MaxSegmentRows < 0 {
		return nil, fmt.Errorf("core: negative segment row cap %d", cfg.MaxSegmentRows)
	}
	// The engine defaults its per-pair trees to packed leaves: the tree
	// semantics are identical (the paper's §4 disk-style layout), and the
	// 64-point leaves — the widest the leaf-cursor bitmask supports — cut
	// both heap traffic on the query path and node overhead by an order
	// of magnitude. Callers can force single-point leaves (the paper's
	// in-memory layout) through Config.Tree.LeafCap.
	if cfg.Tree.LeafCap == 0 {
		cfg.Tree.LeafCap = 64
	}
	e := &Engine{
		dims:        dims,
		roles:       append([]query.Role(nil), cfg.Roles...),
		pairing:     cfg.Pairing,
		layout:      makeLayout(data, cfg.Roles, cfg.Pairing),
		treeCfg:     cfg.Tree,
		sched:       cfg.Scheduler,
		memSize:     cfg.MemtableSize,
		noCompact:   cfg.DisableCompaction,
		colWidth:    cfg.ColumnWidth,
		maxSegRows:  cfg.MaxSegmentRows,
		pool:        cfg.Pool,
		noPlanCache: cfg.DisablePlanCache,
	}
	sn := &snapshot{
		total:  0,
		live:   len(data),
		minVal: make([]float64, dims),
		maxVal: make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		sn.minVal[d], sn.maxVal[d] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range data {
		for d, c := range p {
			sn.minVal[d] = math.Min(sn.minVal[d], c)
			sn.maxVal[d] = math.Max(sn.maxVal[d], c)
		}
	}
	if n := len(ids); n > 0 {
		sn.total = int(ids[n-1]) + 1
		// One sealed segment unless a row cap splits the initial build into
		// ⌈n/max⌉ equal chunks (ascending-ID order, so the stack invariant
		// holds by construction). Columns are gathered dimension-major
		// straight from the caller's rows — the segment's primary layout.
		nchunks := 1
		if e.maxSegRows > 0 && n > e.maxSegRows {
			nchunks = (n + e.maxSegRows - 1) / e.maxSegRows
		}
		for ci := 0; ci < nchunks; ci++ {
			lo, hi := ci*n/nchunks, (ci+1)*n/nchunks
			rows := hi - lo
			cols := make([]float64, rows*dims)
			for d := 0; d < dims; d++ {
				c := cols[d*rows : (d+1)*rows]
				for i := range c {
					c[i] = data[lo+i][d]
				}
			}
			seg, err := e.buildSegment(cols, ids[lo:hi:hi])
			if err != nil {
				return nil, err
			}
			sn.segs = append(sn.segs, seg)
			sn.tombs = append(sn.tombs, nil)
		}
	}
	e.snap.Store(sn)
	e.initCtxPool()
	if cfg.WAL != nil {
		// A fresh WAL directory gets its initial checkpoint before the first
		// mutation is accepted, so the directory invariantly recovers.
		if err := e.attachWAL(*cfg.WAL, 1); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// makePairs applies the pairing strategy (|pairs| = min(|D|, |S|), Eqn. 10).
func makePairs(data [][]float64, repulsive, attractive []int, strategy Pairing) []Pair {
	n := len(repulsive)
	if len(attractive) < n {
		n = len(attractive)
	}
	if n == 0 || strategy == PairNone {
		return nil
	}
	rep := append([]int(nil), repulsive...)
	attr := append([]int(nil), attractive...)
	switch strategy {
	case PairByVariance:
		sortByVarianceDesc(data, rep)
		sortByVarianceDesc(data, attr)
	case PairByCorrelation:
		return greedyCorrelationPairs(data, rep, attr, n)
	}
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = Pair{Rep: rep[i], Attr: attr[i]}
	}
	return pairs
}

func sortByVarianceDesc(data [][]float64, dims []int) {
	vars := make(map[int]float64, len(dims))
	for _, d := range dims {
		vars[d] = dataset.Variance(data, d)
	}
	sort.Slice(dims, func(i, j int) bool {
		if vars[dims[i]] != vars[dims[j]] {
			return vars[dims[i]] > vars[dims[j]]
		}
		return dims[i] < dims[j]
	})
}

func greedyCorrelationPairs(data [][]float64, rep, attr []int, n int) []Pair {
	type scored struct {
		r, a int
		c    float64
	}
	var all []scored
	for _, r := range rep {
		for _, a := range attr {
			all = append(all, scored{r, a, math.Abs(dataset.Correlation(data, r, a))})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		if all[i].r != all[j].r {
			return all[i].r < all[j].r
		}
		return all[i].a < all[j].a
	})
	usedR, usedA := map[int]bool{}, map[int]bool{}
	var pairs []Pair
	for _, s := range all {
		if len(pairs) == n {
			break
		}
		if usedR[s.r] || usedA[s.a] {
			continue
		}
		usedR[s.r], usedA[s.a] = true, true
		pairs = append(pairs, Pair{Rep: s.r, Attr: s.a})
	}
	return pairs
}

// floatSlack, times a query's weighted coordinate reach, bounds the drift
// between the pair trees' projection-space score arithmetic (normalize,
// blend, rescale: a handful of roundings per term) and the exact
// contribution. 64 ulps per unit of term magnitude is far above anything
// the ~10-operation chain can accumulate while staying many orders of
// magnitude below real score gaps.
const floatSlack = 64 * 0x1p-52

// reach returns an upper bound on |p_d − q_d| over every indexed row —
// the magnitude that scales dimension d's score terms.
func (sn *snapshot) reach(d int, qv float64) float64 {
	if sn.minVal[d] > sn.maxVal[d] { // no rows indexed yet
		return 0
	}
	return math.Max(math.Abs(sn.minVal[d]-qv), math.Abs(sn.maxVal[d]-qv))
}

// Pairs returns the chosen dimension pairing (for inspection and tests).
// Adaptive engines have no static pairing — the planner selects a bijection
// per query — and return nil.
func (e *Engine) Pairs() []Pair { return append([]Pair(nil), e.layout.pairs...) }

// Adaptive reports whether the engine selects its dimension pairing at plan
// time over the full pair-tree grid.
func (e *Engine) Adaptive() bool { return e.layout.adaptive }

// Roles returns the build-time dimension roles.
func (e *Engine) Roles() []query.Role { return append([]query.Role(nil), e.roles...) }

// Len returns the number of live points.
func (e *Engine) Len() int { return e.snap.Load().live }

// Epoch returns the version number of the engine's current snapshot: 0 at
// construction (and after Load), bumped by every Insert, Remove, and
// compaction swap. Because epochs are assigned under the writer lock and
// strictly increase, two Epoch calls returning the same value prove no
// snapshot was published between them — which makes the epoch a free cache
// invalidation key: any answer computed while the epoch held steady is
// exactly the answer a fresh query at that epoch would compute.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Segments reports the number of sealed segments in the current snapshot
// and the number of memtable rows — the observable shape of the storage
// stack, which compaction continuously reorganizes.
func (e *Engine) Segments() (segments, memRows int) {
	sn := e.snap.Load()
	return len(sn.segs), sn.memRows()
}

// Compactions reports how many compaction steps (memtable seals, stack
// folds, dead-row reclaims — background or explicit) the engine has
// completed since construction. A monotonic counter for the serving layer's
// metrics surface; it never resets.
func (e *Engine) Compactions() uint64 { return e.compactions.Load() }

// Bytes estimates the resident size of the engine: every sealed segment's
// index structures, flat row block, global-ID map, and tombstone bitset,
// plus the memtable arrays and the per-dimension extrema — everything the
// engine itself retains beyond the caller's dataset, so capacity planning
// numbers are honest.
func (e *Engine) Bytes() int { return e.snap.Load().bytes() }

// Stats reports the work one query performed — the quantities the paper's
// analysis argues about (fetches per subproblem versus a full scan).
type Stats struct {
	// Subproblems actually consulted (zero-weight ones are skipped),
	// summed across every sealed segment.
	Subproblems int
	// Segments counts the sealed segments the query planned across.
	Segments int
	// Fetched counts sorted-access emissions across all subproblems.
	Fetched int
	// Scored counts distinct points scored by random access (memtable rows
	// included — they are always scored exactly).
	Scored int
	// Rounds counts scheduler steps: one adaptive batch dispatched to one
	// subproblem (under either scheduler), so the figure is comparable
	// across scheduling modes.
	Rounds int
	// PlanCacheHits is 1 when the query's plan came from the engine's plan
	// cache, 0 when it was derived.
	PlanCacheHits int
}

// TopK answers the SD-Query. spec.Roles must match the build-time roles,
// except that active dimensions may be demoted to Ignored (equivalent to a
// zero weight).
func (e *Engine) TopK(spec query.Spec) ([]query.Result, error) {
	res, _, err := e.TopKWithStats(spec)
	return res, err
}

// TopKWithStats is TopK plus per-query work counters. Callers that reuse a
// result buffer should prefer TopKAppend (hotpath.go), which this wraps.
func (e *Engine) TopKWithStats(spec query.Spec) ([]query.Result, Stats, error) {
	res, stats, err := e.TopKAppend(nil, spec)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
