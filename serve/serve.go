// Package serve is the production HTTP serving layer over the SD-Query
// engines: an HTTP/JSON API on top of SDIndex (or any Index), built for
// heavy concurrent traffic.
//
//	POST   /v1/topk          one SD-Query → top-k results
//	POST   /v1/batch         many queries in one call
//	POST   /v1/insert        add a point
//	DELETE /v1/points/{id}   tombstone a point
//	POST   /v1/admin/swap    zero-downtime swap to a persisted index
//	GET    /healthz          liveness (503 while draining), node role, lag
//	GET    /metrics          Prometheus text exposition
//	GET    /statz            JSON diagnostic snapshot
//	GET    /v1/repl/*        replication streams for followers (repl.go)
//
// Each /v1/topk request makes exactly one engine call, TopKContext, against
// the index it was decoded against. There is no request batching: the
// engine keeps per-query state (isolines, frontier bounds, the stopping
// threshold), so queries executed together share no work, and a batching
// window would only add queue time. Three serving mechanics distinguish the
// server from a plain mux over the engine:
//
//   - Hot-query result cache (cache.go, sketch.go; WithResultCache):
//     answers are cached keyed on canonical query bytes and versioned by
//     the snapshot epoch, which every insert/remove/compaction/swap
//     publish bumps — so invalidation is free and a hit is byte-identical
//     to what the engine would return now. A HeavyKeeper top-k frequency
//     sketch gates admission so only the Zipf head of the traffic occupies
//     the bounded cache, and the hit path allocates nothing and takes no
//     admission slot.
//   - Backpressure: every endpoint family has a bounded, non-blocking
//     concurrency limit (WithQueueDepth for /v1/topk engine calls,
//     WithWriteConcurrency, WithBatchConcurrency); when one is full the
//     server answers 429 with Retry-After immediately instead of letting
//     goroutines and latency pile up. Per-request deadlines
//     (WithRequestTimeout) cancel queries mid-aggregation through the
//     engine's TopKContext plumbing.
//   - Zero-downtime swap (swap.go): POST /v1/admin/swap loads a persisted
//     index and publishes it with one atomic pointer store. In-flight
//     queries keep the index they grabbed — the engine's snapshot
//     discipline guarantees each request a consistent view — so no request
//     ever observes a torn index. SIGTERM handling in cmd/sdserver drains
//     gracefully: /healthz flips to 503 and in-flight requests finish.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
)

// Index is the engine surface the server needs; *sdquery.SDIndex implements
// it.
type Index interface {
	TopK(q sdquery.Query) ([]sdquery.Result, error)
	TopKContext(ctx context.Context, q sdquery.Query) ([]sdquery.Result, error)
	TopKWithStats(q sdquery.Query) ([]sdquery.Result, sdquery.QueryStats, error)
	BatchTopK(queries []sdquery.Query) ([][]sdquery.Result, error)
	BatchTopKContext(ctx context.Context, queries []sdquery.Query) ([][]sdquery.Result, error)
	Insert(p []float64) (int, error)
	Remove(id int) bool
	Len() int
	Bytes() int
	Roles() []sdquery.Role
	// Epoch is the version number of the index's visible row set: strictly
	// increasing across inserts, removes, and compactions, equal across
	// calls only when nothing changed. The result cache keys entries on it,
	// so a mutation invalidates every cached answer without any explicit
	// invalidation path.
	Epoch() uint64
}

// Optional index capabilities, surfaced in metrics when present.
type segmenter interface {
	Segments() (segments, memRows int)
}
type compactioner interface {
	Compactions() uint64
}
type closer interface {
	Close()
}

// walStater exposes write-ahead-log health — implemented by WithWAL indexes.
// A sticky WALStats.Err flips the server into read-only degradation: writes
// answer 503, /healthz and /metrics report the state, reads keep flowing.
type walStater interface {
	WALStats() sdquery.WALStats
}

// durableRemover distinguishes "not live" from "log failed" on removes —
// without it DELETE falls back to the bool-only Remove.
type durableRemover interface {
	RemoveDurable(id int) (bool, error)
}

// syncer is the drain hook: Shutdown fsyncs the index's WAL through it so
// an interval- or never-synced log survives power loss after a clean stop.
type syncer interface {
	Sync() error
}

var _ Index = (*sdquery.SDIndex)(nil)
var _ segmenter = (*sdquery.SDIndex)(nil)
var _ compactioner = (*sdquery.SDIndex)(nil)

// Option configures a Server.
type Option func(*config)

type config struct {
	queueDepth int
	reqTimeout time.Duration
	writeLimit int
	batchLimit int
	cacheOn    bool
	cacheCap   int
	loader     func(path string) (Index, error)
	loadOpts   []sdquery.SDOption

	followInterval time.Duration // follower poll cadence (follower.go)
	promoteWALDir  string        // where a promoted follower opens its WAL (promote.go)
}

// WithCoalesceWindow has no effect: /v1/topk calls the index directly.
//
// Deprecated: request coalescing was removed. The option is kept only
// because the perfbench harness still passes it, and goes away with the
// next change to that harness.
func WithCoalesceWindow(time.Duration) Option { return func(*config) {} }

// WithMaxBatch has no effect: /v1/topk calls the index directly.
//
// Deprecated: request coalescing was removed. The option is kept only
// because the perfbench harness still passes it, and goes away with the
// next change to that harness.
func WithMaxBatch(int) Option { return func(*config) {} }

// WithQueueDepth bounds how many /v1/topk engine calls may run at once
// (default 1024). A request that finds every slot taken is answered 429 +
// Retry-After immediately, without waiting. Result-cache hits take no slot.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithRequestTimeout sets the per-request deadline enforced through the
// engine's context plumbing (default 0 = none). A timed-out request
// answers 503, and the engine work behind it is cancelled
// mid-aggregation. stats=true queries run uncancellable (TopKWithStats
// carries no context).
func WithRequestTimeout(d time.Duration) Option { return func(c *config) { c.reqTimeout = d } }

// WithWriteConcurrency bounds concurrent /v1/insert + DELETE handlers
// (default 64); excess writes get 429.
func WithWriteConcurrency(n int) Option { return func(c *config) { c.writeLimit = n } }

// WithBatchConcurrency bounds concurrent /v1/batch handlers and stats=true
// /v1/topk queries (default 4). Each runs a full fan-out of its own, so a
// few in flight saturate the pool.
func WithBatchConcurrency(n int) Option { return func(c *config) { c.batchLimit = n } }

// WithResultCache enables the hot-query result cache (default off). Cached
// /v1/topk answers are keyed on the canonical query encoding and versioned
// by (swap generation, index epoch), so a hit is byte-identical to what the
// current index would answer and any write or swap invalidates implicitly —
// see cache.go. Admission is gated by a HeavyKeeper top-k frequency sketch:
// only queries ranking among the hottest WithCacheCapacity keys are stored,
// so scan-like cold traffic cannot thrash the hot set.
func WithResultCache(on bool) Option { return func(c *config) { c.cacheOn = on } }

// WithCacheCapacity bounds the result cache to the n hottest queries
// (default 1024). Implies nothing about memory precisely — entries are
// whole response bodies — but k=10-ish answers are ~300 bytes, so the
// default is a few hundred KB at saturation.
func WithCacheCapacity(n int) Option { return func(c *config) { c.cacheCap = n } }

// WithLoader replaces how /v1/admin/swap turns a path into an Index. The
// default opens the file and loads whichever persisted index kind it holds
// (sdquery.Load), applying the options given to WithLoadOptions.
func WithLoader(f func(path string) (Index, error)) Option { return func(c *config) { c.loader = f } }

// WithLoadOptions sets the sdquery options the default swap loader applies
// (runtime knobs: scheduler, plan cache, memtable size, workers).
func WithLoadOptions(opts ...sdquery.SDOption) Option {
	return func(c *config) { c.loadOpts = append([]sdquery.SDOption(nil), opts...) }
}

// indexBox wraps the Index interface value for atomic publication, caching
// the dimensionality so request decoding never pays Roles()'s defensive
// copy. Every request path that decodes a query against a box must also
// execute against that same box — a swap between decode and execute must
// never run a query validated for one index against another with different
// dimensions.
type indexBox struct {
	idx  Index
	dims int
	// gen is the box's publication generation, unique per server across
	// swaps. Epochs are only comparable within one Index value (a swapped-in
	// index restarts its own counter), so the result cache versions entries
	// by the (gen, epoch) pair.
	gen uint64
}

func (s *Server) newBox(idx Index) *indexBox {
	return &indexBox{idx: idx, dims: len(idx.Roles()), gen: s.genCtr.Add(1)}
}

// Server serves SD-Queries over HTTP. Create with New, mount Handler on any
// http.Server (or use ListenAndServe/Serve), and stop with Shutdown.
type Server struct {
	cfg    config
	box    atomic.Pointer[indexBox]
	genCtr atomic.Uint64
	mux    *http.ServeMux
	met    *metrics
	cache  *resultCache // nil unless WithResultCache(true)

	// serverID is the random half of the replication source token (repl.go);
	// repl is non-nil exactly on followers (follower.go) and makes the write
	// endpoints answer 503 + leader hint. It is an atomic pointer because the
	// role changes at runtime: promotion clears it, demotion installs a fresh
	// followerState (promote.go).
	serverID string
	repl     atomic.Pointer[followerState]

	// gen is the node's cluster generation — the fencing token of the
	// promotion protocol. It only moves forward, and only through the fenced
	// admin endpoints; a write stamped with any other generation is refused,
	// which is what keeps a deposed leader from accepting traffic a newer
	// generation already owns.
	gen atomic.Uint64

	topkSem  chan struct{}
	writeSem chan struct{}
	batchSem chan struct{}

	// ownsIndex marks an index the server built itself (NewFollower's
	// bootstrap, and every index the role machinery swaps in after it), which
	// Close must therefore release. A promoted ex-follower keeps owning its
	// index even though repl is nil.
	ownsIndex atomic.Bool

	swapMu   sync.Mutex // serializes /v1/admin/swap and promote/demote
	draining atomic.Bool

	hsMu sync.Mutex
	hs   *http.Server
}

// New builds a Server over idx. The server owns no listener until
// ListenAndServe/Serve; Handler can be mounted anywhere (httptest included).
func New(idx Index, opts ...Option) *Server {
	cfg := config{
		queueDepth: 1024,
		writeLimit: 64,
		batchLimit: 4,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 1
	}
	if cfg.writeLimit < 1 {
		cfg.writeLimit = 1
	}
	if cfg.batchLimit < 1 {
		cfg.batchLimit = 1
	}
	if cfg.cacheCap < 1 {
		cfg.cacheCap = 1024
	}
	s := &Server{
		cfg:      cfg,
		met:      &metrics{start: time.Now()},
		serverID: newServerID(),
		topkSem:  make(chan struct{}, cfg.queueDepth),
		writeSem: make(chan struct{}, cfg.writeLimit),
		batchSem: make(chan struct{}, cfg.batchLimit),
	}
	if cfg.loader == nil {
		s.cfg.loader = defaultLoader(cfg.loadOpts)
	}
	if cfg.cacheOn {
		s.cache = newResultCache(s.cfg.cacheCap)
	}
	s.box.Store(s.newBox(idx))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("DELETE /v1/points/{id}", s.handleRemove)
	mux.HandleFunc("POST /v1/admin/swap", s.handleSwap)
	mux.HandleFunc("POST /v1/admin/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/admin/demote", s.handleDemote)
	mux.HandleFunc("GET /v1/repl/manifest", s.handleReplManifest)
	mux.HandleFunc("GET /v1/repl/segment", s.handleReplSegment)
	mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux = mux
	return s
}

// Index returns the currently served index (one atomic load).
func (s *Server) Index() Index { return s.box.Load().idx }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Statz returns the current diagnostic snapshot (what GET /statz serves).
func (s *Server) Statz() Statz {
	idx := s.Index()
	st := s.met.statz(idx, s.cache)
	st.Role = "leader"
	if lv, ok := idx.(lsnVectorer); ok {
		st.ReplLSNs = lv.ShardLSNs()
	}
	if t, ok := idx.(totaler); ok {
		st.IndexIDSpace = t.Total()
	}
	st.Generation = s.gen.Load()
	if f := s.repl.Load(); f != nil {
		st.Role = "follower"
		st.Repl = &ReplStatz{
			Leader:           f.leaderURL,
			LagRecords:       f.lag.Load(),
			LastPullUnixNano: f.lastPull.Load(),
			Pulls:            f.pulls.Load(),
			PullErrors:       f.pullErrs.Load(),
			Bootstraps:       f.bootstraps.Load(),
		}
	}
	return st
}

// requestCtx applies the configured per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.reqTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.reqTimeout)
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was written. It is bookkeeping, not a server
// failure — metrics count it separately from errors, so a wave of impatient
// clients (or a load balancer trimming its connection pool) cannot trip an
// error-rate alert on a perfectly healthy server.
const statusClientClosedRequest = 499

// statusFor maps handler errors to HTTP statuses: server-side deadline and
// a failed write-ahead log → 503; client cancellation → 499; everything
// else (validation, role mismatches) → 400.
// DeadlineExceeded is checked before Canceled: a request can carry both
// (client gone AND deadline passed), and blaming the server's own timeout
// is the conservative choice there.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, sdquery.ErrWAL):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// walDegraded reports whether the serving index's write-ahead log has
// failed stickily (and with what), which makes the server read-only:
// mutations would either be lost on crash or are already rejected by the
// engine, so the write handlers refuse them up front with 503 and Retry
// semantics are left to the operator (the state does not clear without a
// reopen).
func (s *Server) walDegraded() (sdquery.WALStats, bool) {
	if ws, ok := s.Index().(walStater); ok {
		st := ws.WALStats()
		return st, st.Err != nil
	}
	return sdquery.WALStats{}, false
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epTopK, time.Since(t0), status) }()

	body, err := readBody(w, r)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	box := s.box.Load()
	idx := box.idx
	q, wantStats, err := decodeQuery(body, box.dims)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if s.repl.Load() != nil {
		// A follower labels every answer with the LSN vector of the snapshot
		// that produced it, read BEFORE the answer is computed (including the
		// cache lookup) so concurrent replication can only make the label
		// under-report freshness — a router comparing it against a write's
		// ack vector then errs toward "too stale", never "fresh enough" when
		// it isn't. Leaders skip the header on reads: they are definitionally
		// fresh, and the read path stays allocation-clean.
		setReplLSNs(w, idx)
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	if wantStats {
		// Stats-enabled queries need per-query counters (they feed the
		// /metrics engine totals), so they run TopKWithStats instead. Each is
		// an uncancellable fan-out, so they share /v1/batch's concurrency
		// limit rather than the /v1/topk one.
		select {
		case s.batchSem <- struct{}{}:
			defer func() { <-s.batchSem }()
		default:
			status = http.StatusTooManyRequests
			writeError(w, status, fmt.Errorf("serve: stats-query concurrency limit reached"))
			return
		}
		res, st, err := idx.TopKWithStats(q)
		if err != nil {
			status = statusFor(err)
			writeError(w, status, err)
			return
		}
		s.met.statQueries.Add(1)
		s.met.fetched.Add(uint64(st.Fetched))
		s.met.scored.Add(uint64(st.Scored))
		s.met.planHits.Add(uint64(st.PlanCacheHits))
		writeJSON(w, http.StatusOK, topkResponse{Results: wireResults(res), Stats: wireQueryStats(st)})
		return
	}

	// Cached fast path: a hit writes the stored body straight out — no
	// admission slot, no engine work, no marshaling, no allocation.
	var key []byte
	var kb *[]byte
	var epoch uint64
	if s.cache != nil {
		kb = s.cache.getBuf()
		key = appendQueryKey((*kb)[:0], q)
		// Read the epoch BEFORE executing. If it reads the same after the
		// answer is computed, no insert/remove/compaction published in
		// between (epochs strictly increase), so the body is exactly this
		// epoch's answer and is safe to cache under it.
		epoch = box.idx.Epoch()
		if body, ok := s.cache.get(key, box.gen, epoch); ok {
			s.met.cacheHits.Add(1)
			*kb = key
			s.cache.putBuf(kb)
			writeRawJSON(w, http.StatusOK, body)
			return
		}
		s.met.cacheMisses.Add(1)
		defer func() { *kb = key; s.cache.putBuf(kb) }()
	}

	select {
	case s.topkSem <- struct{}{}:
		defer func() { <-s.topkSem }()
	default:
		status = http.StatusTooManyRequests
		writeError(w, status, fmt.Errorf("serve: topk concurrency limit reached"))
		return
	}
	res, err := box.idx.TopKContext(ctx, q)
	if err != nil {
		status = statusFor(err)
		writeError(w, status, err)
		return
	}
	body, merr := marshalBody(topkResponse{Results: wireResults(res)})
	if merr != nil {
		status = http.StatusInternalServerError
		http.Error(w, `{"error":"encode response"}`, status)
		return
	}
	if s.cache != nil {
		// Store only if the world held still while we computed: the same box
		// is still published and its epoch is unchanged. Anything else — a
		// swap, a write, a compaction mid-query — and the body may reflect a
		// snapshot the current (gen, epoch) pair no longer describes, so it
		// is served once and not cached.
		if s.box.Load() == box && box.idx.Epoch() == epoch {
			if !s.cache.put(key, box.gen, epoch, body) {
				s.met.cacheRejects.Add(1)
			}
		} else {
			s.met.cacheRejects.Add(1)
		}
	}
	writeRawJSON(w, http.StatusOK, body)
}

// ProbeCache reports whether q would be answered from the result cache
// right now, exercising the exact hit path (key encode, pooled buffer,
// lookup, version check) minus HTTP. The probe feeds the admission sketch
// like any lookup but does not move the hit/miss counters — it exists so
// the bench harness can measure hit-path allocations in-process.
func (s *Server) ProbeCache(q sdquery.Query) bool {
	if s.cache == nil {
		return false
	}
	box := s.box.Load()
	kb := s.cache.getBuf()
	key := appendQueryKey((*kb)[:0], q)
	_, ok := s.cache.get(key, box.gen, box.idx.Epoch())
	*kb = key
	s.cache.putBuf(kb)
	return ok
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epBatch, time.Since(t0), status) }()

	select {
	case s.batchSem <- struct{}{}:
		defer func() { <-s.batchSem }()
	default:
		status = http.StatusTooManyRequests
		writeError(w, status, fmt.Errorf("serve: batch concurrency limit reached"))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var wb wireBatch
	if err := strictUnmarshal(body, &wb); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if len(wb.Queries) == 0 {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("batch has no queries"))
		return
	}
	box := s.box.Load()
	queries := make([]sdquery.Query, len(wb.Queries))
	for i := range wb.Queries {
		q, err := wb.Queries[i].toQuery(box.dims)
		if err != nil {
			status = http.StatusBadRequest
			writeError(w, status, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	out, err := box.idx.BatchTopKContext(ctx, queries)
	if err != nil {
		status = statusFor(err)
		writeError(w, status, err)
		return
	}
	resp := batchResponse{Results: make([][]wireResult, len(out))}
	for i, res := range out {
		resp.Results[i] = wireResults(res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInsert answers 200 only once the insert is committed per the
// index's durability contract: on a WithWAL index, Insert returns after the
// mutation's log record is acknowledged under the configured sync policy
// (fsynced under SyncAlways; OS-buffered under SyncInterval/SyncNever), so
// a 200 means the point survives any crash the policy covers. A failed
// write-ahead log answers 503 — immediately once the failure is sticky, or
// on the triggering request itself (whose mutation was NOT acknowledged) —
// and the server stays read-only until the index is reopened.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epInsert, time.Since(t0), status) }()

	select {
	case s.writeSem <- struct{}{}:
		defer func() { <-s.writeSem }()
	default:
		status = http.StatusTooManyRequests
		writeError(w, status, fmt.Errorf("serve: write concurrency limit reached"))
		return
	}
	if status = s.refuseFollowerWrite(w); status != http.StatusOK {
		return
	}
	if status = s.refuseFencedWrite(w, r); status != http.StatusOK {
		return
	}
	if st, bad := s.walDegraded(); bad {
		status = http.StatusServiceUnavailable
		writeError(w, status, fmt.Errorf("serve: index is read-only: %w", st.Err))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var wi wireInsert
	if err := strictUnmarshal(body, &wi); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	idx := s.Index()
	if wi.ID != nil {
		status = s.insertWithID(w, idx, *wi.ID, wi.Point)
		return
	}
	id, err := idx.Insert(wi.Point)
	if err != nil {
		status = statusFor(err)
		writeError(w, status, err)
		return
	}
	// The ack's LSN vector is read AFTER the insert committed, so it is a
	// position at which the write is certainly visible (over-reporting is
	// safe on the write side: it only makes a router demand fresher
	// replicas than strictly needed).
	setReplLSNs(w, idx)
	writeJSON(w, http.StatusOK, insertResponse{ID: id})
}

// insertWithID handles an insert carrying a caller-assigned global ID — the
// distributed-writer path (cmd/sdrouter assigns cluster-unique ascending
// IDs). The ID makes retries after ambiguous failures provably idempotent:
// if the ID is already taken by the identical point, this very write already
// committed and the duplicate acks 200 exactly like the original; if it is
// taken by a different point, two writers collided and the 409 is a real
// error, never silently absorbed. Returns the status for the metrics defer.
func (s *Server) insertWithID(w http.ResponseWriter, idx Index, id int, point []float64) int {
	ii, ok := idx.(idInserter)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: index does not accept caller-assigned ids"))
		return http.StatusBadRequest
	}
	if id < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: id must be non-negative, got %d", id))
		return http.StatusBadRequest
	}
	err := ii.InsertWithID(id, point)
	if errors.Is(err, sdquery.ErrIDExists) {
		if p, found := ii.PointByID(id); found && pointsEqual(p, point) {
			setReplLSNs(w, idx)
			writeJSON(w, http.StatusOK, insertResponse{ID: id})
			return http.StatusOK
		}
		writeError(w, http.StatusConflict, fmt.Errorf("serve: id %d already holds a different point", id))
		return http.StatusConflict
	}
	if err != nil {
		status := statusFor(err)
		writeError(w, status, err)
		return status
	}
	setReplLSNs(w, idx)
	writeJSON(w, http.StatusOK, insertResponse{ID: id})
	return http.StatusOK
}

// refuseFollowerWrite answers a mutation on a follower with 503, Retry-After,
// and the leader's address, returning the status to record (200 = proceed).
func (s *Server) refuseFollowerWrite(w http.ResponseWriter) int {
	f := s.repl.Load()
	if f == nil {
		return http.StatusOK
	}
	w.Header().Set(headerLeader, f.leaderURL)
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("serve: node is a read-only follower; write to the leader at %s", f.leaderURL))
	return http.StatusServiceUnavailable
}

// refuseFencedWrite enforces the promotion fence on the write path. A router
// stamps every write with the generation of the topology it routed under
// (X-SD-Generation); a node at any other generation refuses it with 503 —
// the request was routed under a topology that no longer describes this
// node, and the router's retry will land on the generation's real leader.
// Requests without the header (single-node deployments, direct clients)
// pass untouched. Whatever the verdict, the response carries the node's own
// generation so the caller learns where the cluster actually is.
func (s *Server) refuseFencedWrite(w http.ResponseWriter, r *http.Request) int {
	cur := s.gen.Load()
	w.Header().Set(headerGeneration, strconv.FormatUint(cur, 10))
	h := r.Header.Get(headerGeneration)
	if h == "" {
		return http.StatusOK
	}
	g, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: %s header %q: %w", headerGeneration, h, err))
		return http.StatusBadRequest
	}
	if g != cur {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: write fenced: request carries generation %d, node is at %d", g, cur))
		return http.StatusServiceUnavailable
	}
	return http.StatusOK
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epRemove, time.Since(t0), status) }()

	select {
	case s.writeSem <- struct{}{}:
		defer func() { <-s.writeSem }()
	default:
		status = http.StatusTooManyRequests
		writeError(w, status, fmt.Errorf("serve: write concurrency limit reached"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("point id %q: %w", r.PathValue("id"), err))
		return
	}
	if status = s.refuseFollowerWrite(w); status != http.StatusOK {
		return
	}
	if status = s.refuseFencedWrite(w, r); status != http.StatusOK {
		return
	}
	if st, bad := s.walDegraded(); bad {
		status = http.StatusServiceUnavailable
		writeError(w, status, fmt.Errorf("serve: index is read-only: %w", st.Err))
		return
	}
	// Like inserts, removes answer 200 only after their tombstone commits
	// per the sync policy; RemoveDurable surfaces the log verdict where the
	// bool-only Remove would swallow it.
	idx := s.Index()
	var removed bool
	if dr, ok := idx.(durableRemover); ok {
		removed, err = dr.RemoveDurable(id)
		if err != nil {
			status = statusFor(err)
			writeError(w, status, err)
			return
		}
	} else {
		removed = idx.Remove(id)
	}
	if !removed {
		removed = s.tombstoned(idx, id)
	}
	setReplLSNs(w, idx)
	writeJSON(w, http.StatusOK, removeResponse{ID: id, Removed: removed})
}

// tombstoned reports whether id holds a removed-but-still-located row — the
// ack-idempotency shield for deletes, mirroring the insert duplicate-200:
// a retried DELETE whose first attempt committed (ack lost in transit) finds
// the tombstone and answers removed:true exactly like the original, instead
// of reporting failure for a delete that succeeded. The probe is sound
// because rows never resurrect: "locatable but not live" can only mean
// tombstoned. An ID physically reclaimed by compaction locates nowhere and
// keeps reporting removed:false — that window is the log-retention horizon,
// same as replication's.
func (s *Server) tombstoned(idx Index, id int) bool {
	ii, ok := idx.(idInserter)
	if !ok {
		return false
	}
	_, found := ii.PointByID(id)
	return found
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Draining is transient and bounded by the drain timeout, so unlike
		// the sticky WAL degradation this 503 tells clients when to come back
		// — same contract as the 429 and follower-write paths.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Role and generation ride as headers so a router's health probe learns
	// both without a second request — the demotion driver keys off a healthy
	// node claiming leadership under a stale generation.
	f := s.repl.Load()
	role := "leader"
	if f != nil {
		role = "follower"
	}
	w.Header().Set(headerRole, role)
	w.Header().Set(headerGeneration, strconv.FormatUint(s.gen.Load(), 10))
	if _, bad := s.walDegraded(); bad {
		// Still alive — reads answer fine — so the liveness probe stays 200;
		// the body tells operators (and the readiness tier, if it reads it)
		// that writes are being refused.
		fmt.Fprintln(w, "degraded: write-ahead log failed; serving read-only")
		return
	}
	if f != nil {
		fmt.Fprintf(w, "ok\nrole: follower\nleader: %s\nrepl_lag_records: %d\n", f.leaderURL, f.lag.Load())
		return
	}
	fmt.Fprintln(w, "ok\nrole: leader")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeProm(w, s.Index(), s.cache)
	s.writeReplProm(w)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statz())
}

// Serve accepts connections on l until Shutdown (or Close on the listener).
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: /healthz flips to 503 (so load balancers stop
// routing), the HTTP server stops accepting and waits for in-flight
// handlers up to ctx's deadline, then Close runs. Once the last
// write handler has returned, the serving index's write-ahead log (if any)
// is force-fsynced so acknowledged mutations survive power loss even under
// SyncInterval/SyncNever. The index itself is left open — it belongs to
// the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	s.Close()
	if sy, ok := s.Index().(syncer); ok {
		if serr := sy.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Close releases the server's goroutines (on a follower, the replication
// pull loop) without waiting for in-flight HTTP requests; use Shutdown for
// graceful drain. Safe after Shutdown; idempotent. A follower also closes
// its index — NewFollower built it, so nobody else holds it.
func (s *Server) Close() {
	if f := s.repl.Load(); f != nil {
		f.stop()
	}
	if s.ownsIndex.Load() {
		if c, ok := s.Index().(closer); ok {
			c.Close()
		}
	}
}

// strictUnmarshal is json.Unmarshal with unknown fields and trailing data
// rejected.
func strictUnmarshal(data []byte, v any) error {
	if err := strictDecode(data, v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}
