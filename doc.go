// Package sdquery answers top-k queries over a mixture of attractive and
// repulsive dimensions — a Go implementation of Ranu & Singh, "Answering
// Top-k Queries Over a Mixture of Attractive and Repulsive Dimensions",
// PVLDB 5(3), 2011.
//
// An SD-Query compares every database point p to a user-supplied query
// object q under the non-monotonic scoring function
//
//	SD-score(p, q) = Σ_{i∈D} α_i·|p_i − q_i|  −  Σ_{j∈S} β_j·|p_j − q_j|
//
// where D holds the repulsive dimensions (distance is rewarded: "different
// habitat", "lower price") and S the attractive ones (closeness is rewarded:
// "same phylogeny", "similar hit rate"). Classic top-k machinery assumes
// monotonic scoring and cannot index this function; this package provides
// the paper's isoline-projection indexes:
//
//   - SDIndex — the general engine (§4 + §5): per-pair 2D projection trees
//     with multi-angle bounds, 1D bidirectional lists for unpaired
//     dimensions, and Threshold-Algorithm aggregation. k and all weights are
//     chosen at query time. WithWorkers gives it one reusable worker pool
//     that carries all of its parallelism: a query's sealed segments fan
//     out across it, BatchTopK runs one query per pool task, and segment
//     builds (bulk build, compaction, Load) spread their tree builds over
//     it. Because the SD-score of a point depends only on that point, one
//     index answers any top-k query exactly; there is no partitioning
//     inside a node.
//   - Top1Index — the specialized 2D structure (§3) for workloads where k
//     and the weights are fixed up front: O(log n) queries over precomputed
//     envelope regions.
//
// # Storage: segments, snapshots, compaction
//
// Every engine is an epoch-versioned stack of immutable sealed segments —
// flat rows, global IDs, and the per-pair index structures, built once and
// never mutated — plus a small mutable memtable absorbing recent Inserts.
// The engine's state is a single atomic pointer to an immutable snapshot,
// so the query path holds no lock at all: TopK/TopKAppend load the
// snapshot once and plan across every sealed segment (tombstones mask
// removed rows at emission; the memtable's rows are scored exactly up
// front). Insert appends to the memtable in O(d) with no index
// maintenance, Remove flips a copy-on-write tombstone bit, and neither
// ever blocks a reader. A background compactor — kicked past
// WithMemtableSize rows, disabled by WithCompaction(false) — seals the
// memtable into a segment, keeps the stack logarithmic (each segment at
// least twice its successor), and rewrites dead-heavy segments; Compact
// forces a synchronous full fold. SDIndex.Snapshot pins a point-in-time
// view that keeps answering byte-identically to the
// scan oracle at its acquisition instant while churn proceeds underneath.
//
// # Persistence
//
// Save serializes an index's snapshot to a versioned binary format — the
// structural configuration plus every segment's rows, IDs, and tombstones;
// index structures rebuild deterministically at load, so LoadSDIndex / Load
// reconstruct an index that answers byte-identically and reports the same
// Bytes, with no data re-ingestion:
//
//	f, _ := os.Create("points.sdx")
//	err := idx.Save(f) // lock-free, snapshot-consistent
//	f.Close()
//	...
//	f, _ = os.Open("points.sdx")
//	idx2, err := sdquery.LoadSDIndex(f) // serves immediately; updates resume
//
// cmd/sdquery exposes the same flow: -save persists an index built from
// CSV, -index serves a persisted one without any rebuild. Sharded files
// written by older releases still load when they hold one shard; files of
// more shards are refused with an error naming the shard count.
//
// # Durability
//
// Save captures a moment; WithWAL makes every mutation crash-safe. An index
// built with WithWAL(dir) appends each Insert/Remove as a checksummed,
// LSN-sequenced record to a write-ahead log before publishing it, and
// Open(dir) (or OpenSDIndex) reconstructs the index after a crash —
// checkpoint first, then the live log tail:
//
//	idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithWAL("/var/lib/sd"))
//	id, err := idx.Insert(row) // returns only after the record is committed
//	...                        // power fails here
//	idx2, err := sdquery.Open("/var/lib/sd") // every acknowledged write intact
//
// WithSyncPolicy picks the durability/throughput point. SyncAlways (the
// default) acknowledges a mutation only after an fsync covers it; a
// group-commit batcher shares each fsync across every mutation that arrived
// in the commit window, so concurrent writers pay far less than one fsync
// each. SyncInterval fsyncs on a timer (WithSyncInterval, bounding loss to
// one interval), SyncNever only on rotation, checkpoint, and Close.
//
// Recovery is deliberately forgiving of the shapes crashes actually leave:
// a torn tail (half-written final record) is truncated at the first bad
// checksum, duplicated records replay idempotently by LSN, and a crash
// mid-checkpoint or mid-rotation falls back to the previous consistent
// state. It refuses to guess only when the directory itself is damaged
// (missing MANIFEST, corrupt checkpoint). The internal/faultfs harness
// proves the contract differentially: the crash suite kills a
// fault-injecting filesystem at every operation boundary and byte watermark
// and requires the reopened index to answer byte-identically to an oracle
// holding exactly the acknowledged prefix; FuzzWALReplay feeds arbitrary
// bytes as the log and requires recovery to never panic, never error, and
// never replay past the first corruption.
//
// When a log write or fsync fails persistently, the index degrades rather
// than lies: the failed mutation (and every later one) returns an error
// wrapping ErrWAL, reads keep serving, and WALStats reports the sticky
// error. The serving layer (below) maps this to read-only mode — writes
// answer 503, /healthz and /metrics advertise the degraded state.
//
// # Serving
//
// Package repro/serve and cmd/sdserver put the engine behind an HTTP/JSON
// API (POST /v1/topk, /v1/batch, /v1/insert, DELETE /v1/points/{id}, plus
// /healthz, /metrics in Prometheus text format, and /statz). Each /v1/topk
// request is one TopKContext call on the serving index: the aggregation's
// state (isolines, frontier bounds, stopping threshold) is per query, so
// batching concurrent queries would share no work. The layer answers 429
// with Retry-After once the bounded number of concurrent engine calls
// (sdserver -queue) is in flight, and enforces per-request deadlines
// through TopKContext / TopKAppendContext: the aggregation loop polls the
// context's Done channel once per scheduling step, so a cancelled or
// timed-out query stops within one adaptive batch and releases every
// pooled buffer. POST /v1/admin/swap
// loads a persisted index and publishes it with one atomic pointer store —
// in-flight queries finish on the index they grabbed, so no request ever
// observes a torn index — and SIGTERM drains gracefully (healthz flips to
// 503, in-flight requests finish, then the process exits). A hot-query
// result cache (serve.WithResultCache) sits in front of admission and the
// engine: entries are keyed on canonical query bytes and versioned by the
// snapshot epoch every publish bumps, so swap/compaction invalidation is
// free and hits stay byte-identical to the live engine; a HeavyKeeper
// frequency sketch admits only the traffic's hot head, and the hit path
// allocates nothing. /statz and /metrics expose the hit rate. The JSON
// wire format is documented in serve/wire.go, next to this binary format.
//
// Scan, SDIndex, and TA break score ties by ascending dataset ID, so their
// answers are byte-identical to each other; BRS and PE resolve exact ties
// at the k-th rank arbitrarily but return the same score sequence. The
// internal/enginetest differential harness (and a native fuzz target)
// enforces both contracts against an exhaustive-scan oracle.
//
// The baselines the paper evaluates against are included, sharing the same
// Query/Result API, so applications can benchmark on their own data:
// sequential scan, the adapted Threshold Algorithm (TA), branch-and-bound
// ranked search over an R*-tree (BRS), and progressive exploration (PE).
//
// # Cluster
//
// Past one machine (or one failure domain), sdserver nodes form leader
// groups: a WAL-backed leader streams its snapshot and live WAL tail over
// /v1/repl/{manifest,segment,wal}, and followers (sdserver -follow, or
// serve.NewFollower) bootstrap from the snapshot, apply WAL records
// idempotently by LSN, serve reads from their own copy, and refuse writes
// with a 503 + Retry-After + X-SD-Leader hint. A checkpoint that retires
// log files a lagging follower still needs — or a leader restart into a
// new history, detected by its source token — triggers a clean
// re-bootstrap, never a silent fork.
//
// cmd/sdrouter (package serve/router) is the cluster front door: the ID
// space folds onto partitions by rendezvous hashing over stable partition
// names, reads scatter to every partition and merge exactly (the SD-score
// of a point depends on no other point, so the router's answers are
// byte-identical to a single node over all rows), and writes route to the
// owning leader under router-assigned cluster-unique IDs, which make
// ambiguous-write retries provably idempotent (duplicate 200 / conflict
// 409); inserts bound for one partition are forwarded in ID-allocation
// order, since a node admits a caller-assigned ID only above its current
// ID space. Failures are handled per try: capped jittered backoff, p99-
// triggered hedged reads against replicas, consecutive-failure ejection
// with half-open recovery, and failover from a dead leader to the
// freshest replica — gated by LSN write watermarks, so a stale
// follower never answers a read that misses an acknowledged write. When
// a whole partition is unreachable reads fail fast with 503; the
// ?allow_partial=1 flag opts into the survivors' merged answer, marked
// "degraded":true — incomplete answers are opt-in and marked, never
// silent. Steady-state reads load-balance by power-of-two-choices over
// the leader and every replica whose cached LSN vector covers the write
// watermark (Config.NoReadBalance pins reads to the leader).
//
// Leader loss heals itself: when a leader stays ejected past
// Config.PromoteAfter the router promotes the most caught-up live
// replica — one whose LSN vector covers the write watermark and every
// other live replica — via POST /v1/admin/promote, fenced by a
// generation number allocated strictly above any the cluster has
// reported. Writes are stamped with the topology's generation and nodes
// refuse mismatches, so a deposed leader can't take writes; when it
// rejoins still claiming leadership at a stale generation, the router
// demotes it into a follower of the current leader. A follower needs
// WithPromotionWALDir to be promotable — an undurable node never
// becomes a leader. The internal/netfault chaos suite (asymmetric
// partitions, mid-body TCP resets, throttling, hard kills) enforces all
// of this differentially against a single-node oracle, under the race
// detector in CI — including a hard leader kill healed by promotion
// with no acked-write loss and no split-brain.
//
// # Performance
//
// A query is snapshotted, planned, scheduled, and batch-executed. The
// snapshot is one atomic load (see above). The planner resolves
// the query's shape (active dimensions, roles, zero weights) to the
// surviving subproblem set, memoized per shape in a per-engine plan cache
// (WithPlanCache to disable; QueryStats.PlanCacheHits to observe). Under
// the default PairAdaptive strategy the planner also picks the
// repulsive↔attractive bijection per query by zipping the active
// dimensions of each role in descending weight order over a pre-built
// pair-tree grid — the guided mapping of the paper's future-work
// discussion, measured within ~1.5% of the per-query optimal bijection's
// sorted-access floor on the evaluation workload.
//
// The Threshold-Algorithm aggregation is driven by a bound-driven
// scheduler: each step bulk-fetches from the subproblem — across every
// sealed segment — whose frontier bound is falling fastest per sorted
// access, with sibling bounds, float pads, and retirement tracked per
// segment and the termination threshold re-checked after every batch
// (WithScheduler(SchedRoundRobin) restores the paper's rotation as an
// ablation). Every subproblem implements a bulk fetch that drains whole
// runs and returns its post-batch frontier bound for free. Together,
// plan-time pairing and bound-driven scheduling cut sorted accesses on
// the default 50k × 6 workload by ~32% against the round-robin in-order
// baseline, at answers byte-identical to the scan oracle (property-tested
// and fuzzed).
//
// All per-query state — weights, bounds, descent rates, emission buffers,
// the seen bitset, stream cursors and heaps, the result collector, the
// plan scratch — lives in per-engine sync.Pool contexts. SDIndex.TopKAppend
// appends results into a caller-reused buffer;
// on a compacted index (one sealed segment, empty memtable — the steady
// state background compaction converges to) they perform zero heap
// allocations per query, which alloc_test.go asserts with
// testing.AllocsPerRun. The TopK convenience forms allocate only the
// returned slice.
//
// Below the scheduler, sealed segments store their coordinates in
// dimension-major columns and every bulk scoring site — packed leaf
// scans, random-access rescores, the memtable sweep — runs through
// 8-wide unrolled kernels over those columns (internal/simd; the sdsimd
// build tag swaps in AVX assembly on amd64, bit-identical to the pure-Go
// kernels and gated so in CI). WithColumnWidth(32) stores scoring
// columns as float32 — half the memory traffic — while keeping answers
// exact: candidates within the narrow columns' error bound of the
// pruning threshold are rescored against the float64 originals.
//
// WithWorkers additionally parallelizes a single query across its sealed
// segments: each segment's subproblems run as an independent task on the
// index's worker pool, cooperating through a shared prune floor (the
// best k-th score any task has proven), and the per-segment top-k sets
// merge deterministically — answers stay byte-identical to the
// sequential schedule, enforced by the differential suites and a
// scheduler-equivalence property test. The fan-out only helps when there
// are multiple sealed segments (sustained insert traffic, a segment row
// cap via WithMaxSegmentRows, or a freshly loaded multi-segment file)
// and spare cores; on one core, or on the compacted single-segment
// steady state, the sequential path is already optimal. QueryStats
// remains accurate in total but its per-counter split becomes
// timing-dependent under the fan-out.
//
// Reproduce the numbers with `go test -bench 'BenchmarkTopK$' -benchmem .`
// or regenerate the machine-readable trajectory with
// `go run ./cmd/sdbench -json BENCH_sdbench.json`; the committed
// BENCH_sdbench.json is the baseline future changes compare against, and
// `-baseline BENCH_sdbench.json` turns a fresh report into a regression
// gate (CI's bench-smoke job runs exactly that).
//
// # Quick start
//
//	data := [][]float64{ ... }            // n × d
//	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive}
//	idx, err := sdquery.NewSDIndex(data, roles)
//	...
//	res, err := idx.TopK(sdquery.Query{
//		Point:   []float64{0.3, 0.7},
//		K:       5,
//		Roles:   roles,
//		Weights: []float64{1, 1},
//	})
//
// See examples/ for runnable scenarios: the zoology example from the paper's
// introduction, online-advertising publisher selection, and chemical
// scaffold hopping.
package sdquery
