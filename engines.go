package sdquery

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/baseline/brs"
	"repro/internal/baseline/pe"
	"repro/internal/baseline/scan"
	"repro/internal/baseline/ta"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topk"
)

// PairingStrategy selects how repulsive dimensions are mapped to attractive
// ones for the 2D subproblems (the bijection of Eqn. 10).
type PairingStrategy = core.Pairing

// Pairing strategies. PairAdaptive — the default — indexes the full
// repulsive × attractive pair-tree grid (within an internal size budget) and
// lets the query planner zip the active dimensions of each role in
// descending weight order per query, the guided mapping the paper's
// future-work discussion asks about; measured on the evaluation workload its
// sorted-access floor is within ~1.5% of the per-query optimal bijection.
// PairInOrder is the paper's arbitrary build-time mapping (and what
// PairAdaptive falls back to past its grid budget); PairByCorrelation and
// PairByVariance are build-time guided mappings; PairNone disables pairing
// entirely, degenerating the engine into the adapted Threshold Algorithm.
const (
	PairAdaptive      = core.PairAdaptive
	PairInOrder       = core.PairInOrder
	PairByCorrelation = core.PairByCorrelation
	PairByVariance    = core.PairByVariance
	PairNone          = core.PairNone
)

// SchedulerMode selects how the §5 aggregation orders its sorted accesses
// across subproblems (the scheduling layer of the Threshold Algorithm).
type SchedulerMode = core.Scheduler

// Scheduler modes. SchedBoundDriven (the default) always drains the
// subproblem whose frontier bound is highest, lowering the termination
// threshold as fast as possible per sorted access and re-checking it after
// every batch; SchedRoundRobin is the paper's fixed rotation with per-round
// threshold checks, kept as an ablation so the scheduling win stays
// benchmarkable. Both modes return byte-identical answers.
const (
	SchedBoundDriven = core.SchedBoundDriven
	SchedRoundRobin  = core.SchedRoundRobin
)

// SyncPolicy selects when write-ahead-log records are fsynced — the
// durability/latency trade of WithWAL indexes. See the constants.
type SyncPolicy = core.SyncPolicy

// Sync policies. SyncAlways (the default) fsyncs before acknowledging a
// mutation — one group commit covers every writer blocked in the same
// window, so concurrent writers share the fsync. SyncInterval acknowledges
// once the record reaches the OS and fsyncs on a timer (process crashes
// lose nothing; power failures lose at most the last interval). SyncNever
// leaves fsync to log rotation, checkpoints, Sync, and Close.
const (
	SyncAlways   = core.SyncAlways
	SyncInterval = core.SyncInterval
	SyncNever    = core.SyncNever
)

// ErrWAL marks mutations rejected because the index's write-ahead log
// failed (disk full, I/O error). The failure is sticky: the index keeps
// answering queries but refuses further writes until reopened.
var ErrWAL = core.ErrWAL

// WALStats is the observable state of an index's write-ahead log; see
// SDIndex.WALStats.
type WALStats = core.WALStats

// SDOption configures NewSDIndex.
type SDOption func(*sdConfig)

type sdConfig struct {
	pairing      PairingStrategy
	tree         topk.Config
	angleDegrees []float64
	useAngles    bool
	workers      int
	workersSet   bool
	columnWidth  int
	maxSegRows   int
	sched        SchedulerMode
	noPlanCache  bool
	memSize      int
	noCompact    bool
	walDir       string
	walFS        faultfs.FS
	syncPolicy   SyncPolicy
	syncInterval time.Duration
}

// walConfig materializes the WAL option set for one engine logging under
// dir; nil when WithWAL was not given.
func (c *sdConfig) walConfig(dir string) *core.WALConfig {
	if c.walDir == "" {
		return nil
	}
	return &core.WALConfig{Dir: dir, FS: c.walFS, Policy: c.syncPolicy, Interval: c.syncInterval}
}

// coreConfig materializes the option set into the internal engine
// configuration for one (sub-)dataset with the given roles.
func (c *sdConfig) coreConfig(roles []Role) (core.Config, error) {
	cfg := core.Config{Roles: roles, Pairing: c.pairing, Tree: c.tree,
		Scheduler: c.sched, DisablePlanCache: c.noPlanCache,
		MemtableSize: c.memSize, DisableCompaction: c.noCompact,
		ColumnWidth: c.columnWidth, MaxSegmentRows: c.maxSegRows}
	if c.useAngles {
		cfg.Tree.Angles = nil
		for _, d := range c.angleDegrees {
			a, err := geom.AngleFromDegrees(d)
			if err != nil {
				return core.Config{}, err
			}
			cfg.Tree.Angles = append(cfg.Tree.Angles, a)
		}
		if len(cfg.Tree.Angles) == 0 {
			// An explicit empty set falls back to 0° and 90° only.
			cfg.Tree.Angles = []geom.Angle{{Alpha: 1, Beta: 0}, {Alpha: 0, Beta: 1}}
		}
	}
	return cfg, nil
}

// WithPairing selects the dimension-pairing strategy (default PairAdaptive).
// Pairing never changes answers — only index memory and sorted-access
// counts; WithPairing(PairInOrder) restores the previous fixed mapping and
// its smaller min(|D|, |S|)-tree footprint.
func WithPairing(p PairingStrategy) SDOption {
	return func(c *sdConfig) { c.pairing = p }
}

// WithBranching sets the fan-out b of the per-pair projection trees
// (default 8).
func WithBranching(b int) SDOption {
	return func(c *sdConfig) { c.tree.Branching = b }
}

// WithLeafCapacity sets the number of points per tree leaf (default 1; the
// paper's disk-style bulk packing uses larger leaves).
func WithLeafCapacity(cap int) SDOption {
	return func(c *sdConfig) { c.tree.LeafCap = cap }
}

// WithAngles sets the indexed projection angles in degrees. 0 and 90 are
// always added if absent. Default: {0, 23, 45, 67, 90} (§6.1).
func WithAngles(degrees ...float64) SDOption {
	return func(c *sdConfig) {
		c.useAngles = true
		c.angleDegrees = append([]float64(nil), degrees...)
	}
}

// WithRebuildThreshold sets the imbalance fraction θ that triggers a tree
// rebuild after updates (default 0.25).
func WithRebuildThreshold(theta float64) SDOption {
	return func(c *sdConfig) { c.tree.RebuildThreshold = theta }
}

// WithScheduler selects the sorted-access scheduling mode of the §5
// aggregation (default SchedBoundDriven). Scheduling never changes answers —
// only how many sorted accesses a query spends — so the knob exists for
// ablation benchmarks and regression comparisons.
func WithScheduler(m SchedulerMode) SDOption {
	return func(c *sdConfig) { c.sched = m }
}

// WithPlanCache enables or disables the per-engine query-plan cache
// (default enabled). The cache memoizes the derived plan — surviving
// subproblems, active weight signs — per query shape (which dimensions are
// active, which roles engaged, which weights are zero), so repeated traffic
// shapes skip plan derivation; QueryStats.PlanCacheHits reports hits. The
// cache is shared across the index's pooled query contexts.
func WithPlanCache(enabled bool) SDOption {
	return func(c *sdConfig) { c.noPlanCache = !enabled }
}

// WithMemtableSize sets the memtable row count past which the background
// compactor seals recent inserts into an immutable segment (default 1024).
// Smaller values seal more eagerly — less per-query memtable scanning, more
// frequent tree builds; larger values batch more inserts per seal. Queries
// are exact at every setting.
func WithMemtableSize(rows int) SDOption {
	return func(c *sdConfig) { c.memSize = rows }
}

// WithCompaction enables or disables background compaction (default
// enabled). With compaction disabled the memtable grows without bound —
// queries stay exact, scanning it row by row — and segments are only ever
// folded by an explicit Compact call; useful for tests and for bulk-load
// phases that end with one big Compact.
func WithCompaction(enabled bool) SDOption {
	return func(c *sdConfig) { c.noCompact = !enabled }
}

// WithWAL gives the index a crash-safe write-ahead log rooted at dir.
// Every Insert and Remove is appended — checksummed and length-prefixed —
// to a per-engine log before it is acknowledged, so a crash (process kill
// or, under SyncAlways, power loss) never loses an acknowledged mutation:
// Open/OpenSDIndex recover the directory by loading its last checkpoint and
// replaying the log tail, truncating torn tails instead of failing. dir must
// be empty or nonexistent at creation; an existing durable index is
// recovered with the Open functions, never overwritten.
func WithWAL(dir string) SDOption {
	return func(c *sdConfig) { c.walDir = dir }
}

// WithSyncPolicy selects the WAL fsync policy (default SyncAlways). Only
// meaningful together with WithWAL.
func WithSyncPolicy(p SyncPolicy) SDOption {
	return func(c *sdConfig) { c.syncPolicy = p }
}

// WithSyncInterval sets SyncInterval's fsync cadence (default 100ms). Only
// meaningful together with WithWAL and WithSyncPolicy(SyncInterval).
func WithSyncInterval(d time.Duration) SDOption {
	return func(c *sdConfig) { c.syncInterval = d }
}

// WithWALFS replaces the filesystem the WAL talks to — the fault-injection
// hook the crash-recovery suites use (internal/faultfs.Mem simulates torn
// writes, fsync failures, and power loss deterministically). Production
// indexes leave it unset and get the real filesystem.
func WithWALFS(fs faultfs.FS) SDOption {
	return func(c *sdConfig) { c.walFS = fs }
}

// WithWorkers gives the index a worker pool of n goroutines (≤ 0 selects
// GOMAXPROCS). The calling goroutine always participates in its own call's
// fan-out, so the effective parallelism of one call is up to workers+1, and
// concurrent calls each add their calling goroutine on top of the shared
// pool — the pool bounds the extra goroutines, not total CPU use.
//
// The one pool carries all of the index's parallelism:
//
//   - Intra-query segment fan-out: one query's sealed segments are
//     aggregated concurrently, cooperating through a shared termination
//     threshold, and the per-segment candidate sets merge into answers
//     byte-identical to the sequential schedule. An index with a single
//     sealed segment (the compacted steady state) runs sequentially either
//     way; WithMaxSegmentRows splits it.
//   - BatchTopK: each query of a batch is one pool task. Batch members
//     aggregate their segments sequentially, since a pool task must not
//     fan out on its own pool again.
//   - Segment builds: the bulk build, compaction, and Load build a
//     segment's pair trees as concurrent pool tasks.
//
// Omitting the option keeps every path on the caller's goroutine, with the
// fully deterministic Stats trace.
func WithWorkers(n int) SDOption {
	return func(c *sdConfig) { c.workers = n; c.workersSet = true }
}

// WithColumnWidth selects the precision of the sealed segments' scoring
// columns: 64 (the default) stores the sweep columns as float64; 32 adds a
// float32 copy the batch kernels sweep at half the memory bandwidth,
// rescoring survivors against the exact rows so answers remain byte-identical
// to the float64 path. The narrow copy costs ~50% extra column memory and is
// structural: persisted indexes record it, and Load restores it from the
// file.
func WithColumnWidth(bits int) SDOption {
	return func(c *sdConfig) { c.columnWidth = bits }
}

// WithMaxSegmentRows caps the rows of any sealed segment: the initial bulk
// build and every compaction split their output into ⌈rows/cap⌉ segments
// instead of one. A cap turns the single-segment steady state into a stack
// of bounded segments — the unit WithWorkers' intra-query parallelism fans
// out over. 0 (the default) leaves segments unbounded; answers are
// unaffected either way.
func WithMaxSegmentRows(rows int) SDOption {
	return func(c *sdConfig) { c.maxSegRows = rows }
}

// SDIndex is the paper's SD-Index: the general top-k engine with k and
// weights supplied at query time. Because the SD-score of a point depends
// only on that point, one index answers any top-k query exactly; WithWorkers
// adds a worker pool for intra-query segment fan-out, BatchTopK, and
// concurrent segment builds. Queries read an atomically loaded snapshot of
// an immutable segment stack and take no lock, so they run concurrently with
// Insert, Remove, and background compaction.
type SDIndex struct {
	eng   *core.Engine
	roles []Role
	pool  *workerPool // owned worker pool; nil without WithWorkers
	buf   sync.Pool   // *[]query.Result scratch for the Append paths
}

// NewSDIndex builds the SD-Index over data (row-major, n × d) with the
// given build-time roles. Queries may later demote an active dimension to
// Ignored but may not flip attractive and repulsive.
func NewSDIndex(data [][]float64, roles []Role, opts ...SDOption) (*SDIndex, error) {
	ids := make([]int32, len(data))
	for i := range ids {
		ids[i] = int32(i)
	}
	return newSDIndex(data, ids, roles, opts)
}

// NewSDIndexWithIDs is NewSDIndex for a dataset that carries its own global
// IDs — the constructor a cluster partition uses, so a node holding rows
// {3, 17, 40, …} of the logical dataset answers queries with those original
// IDs and the scatter-gather merge over partitions is byte-identical to one
// index over the whole dataset. ids must be non-negative and strictly
// ascending, one per row.
func NewSDIndexWithIDs(data [][]float64, ids []int, roles []Role, opts ...SDOption) (*SDIndex, error) {
	if len(data) != len(ids) {
		return nil, fmt.Errorf("sdquery: %d rows but %d ids", len(data), len(ids))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("sdquery: empty dataset")
	}
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		switch {
		case id < 0 || id > math.MaxInt32:
			return nil, fmt.Errorf("sdquery: id %d outside [0, %d]", id, math.MaxInt32)
		case i > 0 && id == ids[i-1]:
			return nil, fmt.Errorf("sdquery: duplicate id %d", id)
		case i > 0 && id < ids[i-1]:
			return nil, fmt.Errorf("sdquery: ids must be strictly ascending (%d after %d)", id, ids[i-1])
		}
		ids32[i] = int32(id)
	}
	return newSDIndex(data, ids32, roles, opts)
}

func newSDIndex(data [][]float64, ids []int32, roles []Role, opts []SDOption) (*SDIndex, error) {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	coreCfg, err := cfg.coreConfig(roles)
	if err != nil {
		return nil, err
	}
	if cfg.walDir != "" {
		if err := writeManifest(&cfg); err != nil {
			return nil, err
		}
		coreCfg.WAL = cfg.walConfig(engineWALDir(cfg.walDir))
	}
	return cfg.open(func(pool core.Runner) (*core.Engine, error) {
		coreCfg.Pool = pool
		return core.NewWithIDs(data, ids, coreCfg)
	})
}

// open builds the index around the engine that mk constructs, handing mk the
// WithWorkers pool as the engine's Runner (nil without the option). Every
// constructor — build, Load, Open, follower bootstrap — goes through it.
func (c *sdConfig) open(mk func(pool core.Runner) (*core.Engine, error)) (*SDIndex, error) {
	var (
		pool   *workerPool
		runner core.Runner
	)
	if c.workersSet {
		pool = newWorkerPool(c.workers)
		runner = poolRunner{pool}
	}
	eng, err := mk(runner)
	if err != nil {
		pool.close()
		return nil, err
	}
	return &SDIndex{eng: eng, roles: eng.Roles(), pool: pool}, nil
}

// TopK answers the query. See Engine.
func (s *SDIndex) TopK(q Query) ([]Result, error) {
	return s.TopKAppend(nil, q)
}

// TopKAppend answers the query, appending the results (best first) to dst
// and returning the extended slice. With a caller-reused dst the
// steady-state query path performs no allocation: all per-query state lives
// in pooled contexts inside the engine. dst's existing elements are
// preserved; a nil dst behaves like TopK. The whole path is lock-free —
// snapshot acquisition is a single atomic load (see Snapshot).
func (s *SDIndex) TopKAppend(dst []Result, q Query) ([]Result, error) {
	return s.appendVia(s.eng.View(), dst, q, nil)
}

// Len reports the number of live points.
func (s *SDIndex) Len() int { return s.eng.Len() }

// Epoch returns the version number of the index's current snapshot: 0 at
// construction, bumped by every Insert, Remove, and compaction step (one
// atomic load, no lock). Epochs strictly increase, so equal values from two
// calls prove the visible row set did not change in between — the free
// invalidation key the serving layer's result cache relies on.
func (s *SDIndex) Epoch() uint64 { return s.eng.Epoch() }

// Roles returns the build-time dimension roles.
func (s *SDIndex) Roles() []Role { return append([]Role(nil), s.roles...) }

// Insert adds a point and returns its dataset ID. The row lands in the
// engine's memtable — O(d) work, no index maintenance — and becomes part of
// a sealed segment when the background compactor next runs; queries see it
// immediately either way. Insert never blocks queries.
func (s *SDIndex) Insert(p []float64) (int, error) { return s.eng.Insert(p) }

// Remove deletes a point by dataset ID, reporting whether it was live. The
// row is tombstoned in the current snapshot (removed rows are masked at
// query time) and physically reclaimed by a later compaction. On a WAL
// index Remove waits for durability like Insert but drops the error; use
// RemoveDurable when the caller must distinguish "not live" from "log
// failed".
func (s *SDIndex) Remove(id int) bool { return s.eng.Remove(id) }

// RemoveDurable is Remove with the WAL verdict: on a WithWAL index it
// returns ErrWAL when the tombstone could not be made durable, and the
// reported bool is authoritative only when err is nil. Without a WAL it is
// exactly Remove.
func (s *SDIndex) RemoveDurable(id int) (bool, error) { return s.eng.RemoveDurable(id) }

// Sync force-fsyncs the index's write-ahead log regardless of sync policy —
// the shutdown drain: a server running SyncInterval or SyncNever calls it
// so every acknowledged mutation survives power loss too. No-op without a
// WAL.
func (s *SDIndex) Sync() error { return s.eng.Sync() }

// Checkpoint writes the index's current snapshot into the WAL directory and
// retires the log files it covers. The background compactor checkpoints
// automatically as sealed log volume accumulates; an explicit call bounds
// recovery time before a planned restart. No-op without a WAL.
func (s *SDIndex) Checkpoint() error { return s.eng.Checkpoint() }

// Close flushes and closes the index's write-ahead log and releases the
// WithWorkers pool's goroutines. The index stays queryable — reads never
// touch the log, and a closed pool degrades queries and batches to the
// caller's goroutine (same answers) rather than failing — but every later
// mutation fails with ErrWAL on a WAL index. Idempotent, and safe to call
// concurrently with queries.
func (s *SDIndex) Close() {
	s.pool.close()
	s.eng.Close()
}

// WALStats reports the write-ahead log's counters and health; Enabled is
// false without WithWAL. A non-nil Err means the log failed and the index
// is read-only (every mutation returns ErrWAL) until reopened.
func (s *SDIndex) WALStats() WALStats { return s.eng.WALStats() }

// Compact synchronously folds the index's segment stack and memtable into a
// single sealed segment, dropping tombstoned rows. Queries keep flowing
// throughout; use it to finish a bulk-load phase or to pin the zero-alloc
// steady state before latency-critical serving.
func (s *SDIndex) Compact() { s.eng.Compact() }

// Segments reports the number of sealed segments and memtable rows in the
// index's current snapshot — the observable shape of the storage stack that
// background compaction continuously reorganizes.
func (s *SDIndex) Segments() (segments, memRows int) { return s.eng.Segments() }

// Bytes estimates the resident size of the index structures.
func (s *SDIndex) Bytes() int { return s.eng.Bytes() }

// NewScan returns the sequential-scan engine — the exact baseline every
// other engine is validated against.
func NewScan(data [][]float64) (Engine, error) {
	eng, err := scan.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewTA returns the adapted Threshold Algorithm baseline (per-dimension
// sorted lists, one subproblem per dimension).
func NewTA(data [][]float64) (Engine, error) {
	eng, err := ta.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewBRS returns the branch-and-bound ranked search baseline over an
// in-memory R*-tree. nodeCapacity ≤ 0 selects the paper's tuned capacity
// for the data's dimensionality.
func NewBRS(data [][]float64, nodeCapacity int) (Engine, error) {
	dims := 0
	if len(data) > 0 {
		dims = len(data[0])
	}
	if nodeCapacity <= 0 {
		nodeCapacity = brs.NodeCapacityFor(dims)
	}
	eng, err := brs.NewWithCapacity(data, nodeCapacity)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

// NewPE returns the progressive-exploration baseline (NRA-style progressive
// merge over per-dimension lists).
func NewPE(data [][]float64) (Engine, error) {
	eng, err := pe.New(data)
	if err != nil {
		return nil, err
	}
	return &wrapped{topk: eng.TopK, length: eng.Len}, nil
}

type wrapped struct {
	topk   func(query.Spec) ([]query.Result, error)
	length func() int
}

func (w *wrapped) TopK(q Query) ([]Result, error) {
	res, err := w.topk(q.spec())
	if err != nil {
		return nil, err
	}
	return convertResults(res), nil
}

func (w *wrapped) Len() int { return w.length() }

// Engines must keep satisfying the interface.
var (
	_ Engine = (*SDIndex)(nil)
	_ Engine = (*wrapped)(nil)
)
