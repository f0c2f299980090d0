package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Partition names one leader group: the leader every write for its slots
// goes to, plus the read replicas (followers of that leader) reads may
// fail over or hedge to.
type Partition struct {
	Name     string
	Leader   string
	Replicas []string
}

// Config configures a Router. Zero values take the documented defaults.
type Config struct {
	// Partitions is the cluster topology. Required, at least one.
	Partitions []Partition
	// Slots is the rendezvous slot count the ID space folds into (default
	// 64). All routers over one cluster must agree on it.
	Slots int
	// TryTimeout bounds each individual attempt (default 2s).
	TryTimeout time.Duration
	// Retries is how many times a failed attempt is retried, with
	// exponential backoff from BackoffBase (default 10ms) capped at
	// BackoffCap (default 500ms), jittered ±50%. The zero value takes the
	// default of 2 (3 attempts total); any negative value disables retries
	// entirely (1 attempt). The sdrouter -retries flag translates 0 to the
	// negative sentinel, so "-retries 0" means what it says.
	Retries     int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeDelay is how long a read waits on its primary before racing a
	// second copy against a replica. 0 (default) adapts per node — the
	// node's observed p99 — so hedges fire exactly when a try is slower
	// than that node usually is; negative disables hedging.
	HedgeDelay time.Duration
	// HealthInterval is the active health-check cadence (default 250ms);
	// FailAfter consecutive failures eject a node (default 3) until
	// ReopenAfter has passed (default 1s), after which it is half-open.
	HealthInterval time.Duration
	FailAfter      int
	ReopenAfter    time.Duration
	// PromoteAfter is how long a partition's leader must stay continuously
	// unhealthy before the router promotes the most caught-up live replica
	// to leader (default 3s; negative disables automated promotion, leaving
	// the partition write-unavailable until an operator intervenes). The
	// promotion protocol is generation-fenced end to end — see health.go.
	PromoteAfter time.Duration
	// NoReadBalance disables replica-aware read load balancing: with it set,
	// steady-state reads always prefer the leader (replicas serve only
	// hedges and failover), the pre-balancing behavior. Default off —
	// reads spread across freshness-qualified nodes by power-of-two-choices
	// on observed latency.
	NoReadBalance bool
	// Seed fixes the jitter RNG for deterministic tests (0 = time-seeded).
	Seed int64
	// Transport overrides the HTTP transport (tests inject faults here).
	Transport http.RoundTripper
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Slots == 0 {
		out.Slots = 64
	}
	if out.TryTimeout <= 0 {
		out.TryTimeout = 2 * time.Second
	}
	if out.Retries == 0 {
		out.Retries = 2
	}
	if out.Retries < 0 {
		out.Retries = 0
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 10 * time.Millisecond
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = 500 * time.Millisecond
	}
	if out.HealthInterval <= 0 {
		out.HealthInterval = 250 * time.Millisecond
	}
	if out.FailAfter <= 0 {
		out.FailAfter = 3
	}
	if out.ReopenAfter <= 0 {
		out.ReopenAfter = time.Second
	}
	if out.PromoteAfter == 0 {
		out.PromoteAfter = 3 * time.Second
	}
	return out
}

// topology is one partition's immutable leader/replica assignment under one
// generation. Promotion installs a whole new topology with one atomic
// pointer store — readers and writers always see a consistent (generation,
// leader, replicas) triple, never a torn mix of two regimes. The node
// objects themselves persist across topologies, so breaker and latency
// state survives a role change.
type topology struct {
	// gen is the partition's fencing generation: 0 at startup, bumped by
	// every promotion. Writes are stamped with it and acks validated
	// against it (write.go); nodes refuse writes from any other generation.
	gen      uint64
	leader   *node
	replicas []*node
}

func (t *topology) nodes() []*node {
	out := make([]*node, 0, 1+len(t.replicas))
	out = append(out, t.leader)
	return append(out, t.replicas...)
}

// partition is the runtime state behind one Partition.
type partition struct {
	name string
	topo atomic.Pointer[topology]

	// wq orders in-flight inserts so they reach the leader in ID-allocation
	// order — the node's ID-space contract requires it (write.go).
	wq *writeQueue

	// leaderDown stamps (unix nanos) when the current leader was first seen
	// unhealthy by the prober; 0 while healthy. The promotion deadline is
	// measured against it (health.go).
	leaderDown atomic.Int64
	// promoting and demoting each guard one admin call in flight per
	// partition — probes fire every HealthInterval, the calls take longer.
	promoting atomic.Bool
	demoting  atomic.Bool
	// maxGen tracks the highest generation any of this partition's nodes
	// has ever reported — promotions allocate above it, so a promote whose
	// ack was lost (node at G, topology still behind) can never seed two
	// nodes with the same generation.
	maxGen atomic.Uint64

	// hw is the write high-watermark: the componentwise max of the
	// X-SD-Repl-Lsns vectors on this partition's write acks through this
	// router. A replica may answer a read only when its own vector covers
	// hw — the read-your-writes guarantee across failover.
	hwMu sync.Mutex
	hw   []uint64
}

func (p *partition) hwVector() []uint64 {
	p.hwMu.Lock()
	defer p.hwMu.Unlock()
	return append([]uint64(nil), p.hw...)
}

// raiseHW lifts the watermark to cover v (componentwise max).
func (p *partition) raiseHW(v []uint64) {
	if len(v) == 0 {
		return
	}
	p.hwMu.Lock()
	for len(p.hw) < len(v) {
		p.hw = append(p.hw, 0)
	}
	for i, x := range v {
		if x > p.hw[i] {
			p.hw[i] = x
		}
	}
	p.hwMu.Unlock()
}

// routerMetrics are the router's own counters (served on /statz, /metrics).
type routerMetrics struct {
	reads, writes           atomic.Uint64
	retries, hedges         atomic.Uint64
	replicaReads            atomic.Uint64 // reads answered by a non-leader
	staleRejects            atomic.Uint64 // replica answers too stale for hw
	degraded                atomic.Uint64 // allow_partial responses served
	partitionFailures       atomic.Uint64 // partition-level fetch failures
	unavailable             atomic.Uint64 // requests answered 503
	errors4xx, idAllocFails atomic.Uint64
	promotions              atomic.Uint64 // replicas promoted to leader
	demotions               atomic.Uint64 // stale leaders demoted to follower
}

// Router scatter-gathers a cluster of serve.Server nodes. Create with New,
// mount Handler, stop with Close.
type Router struct {
	cfg         Config
	parts       []*partition
	table       []int // slot → partition index (rendezvous)
	client      *http.Client
	probeClient *http.Client
	met         routerMetrics

	rngMu sync.Mutex
	rng   *rand.Rand

	idMu   sync.Mutex
	nextID atomic.Int64 // next global ID to assign; -1 until seeded

	quit chan struct{}
	done chan struct{}
}

// New validates the topology, builds the slot table, and starts the active
// health checker.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	names := make([]string, len(cfg.Partitions))
	parts := make([]*partition, len(cfg.Partitions))
	for i, pc := range cfg.Partitions {
		if pc.Leader == "" {
			return nil, fmt.Errorf("router: partition %q has no leader", pc.Name)
		}
		names[i] = pc.Name
		p := &partition{name: pc.Name, wq: newWriteQueue()}
		topo := &topology{leader: &node{url: strings.TrimRight(pc.Leader, "/")}}
		for _, ru := range pc.Replicas {
			topo.replicas = append(topo.replicas, &node{url: strings.TrimRight(ru, "/")})
		}
		p.topo.Store(topo)
		parts[i] = p
	}
	table, err := rendezvousOwners(names, cfg.Slots)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	rt := &Router{
		cfg:         cfg,
		parts:       parts,
		table:       table,
		client:      &http.Client{Transport: transport},
		probeClient: &http.Client{Transport: transport, Timeout: cfg.TryTimeout / 2},
		rng:         rand.New(rand.NewSource(seed)),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	rt.nextID.Store(-1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health checker.
func (rt *Router) Close() {
	select {
	case <-rt.quit:
	default:
		close(rt.quit)
	}
	<-rt.done
}

// owner maps a global ID to its partition.
func (rt *Router) owner(id int) *partition {
	return rt.parts[rt.table[id%len(rt.table)]]
}

// Handler returns the router's HTTP handler — the same client surface as a
// single serve.Server, minus admin and stats=true.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", rt.handleTopK)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("POST /v1/insert", rt.handleInsert)
	mux.HandleFunc("DELETE /v1/points/{id}", rt.handleRemove)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /statz", rt.handleStatz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// jitter spreads a backoff delay over [d/2, 3d/2) so synchronized retries
// from many clients decorrelate.
func (rt *Router) jitter(d time.Duration) time.Duration {
	rt.rngMu.Lock()
	f := 0.5 + rt.rng.Float64()
	rt.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// terminalError marks a failure retrying cannot fix (the request itself is
// bad, or the cluster state contradicts it).
type terminalError struct {
	status int
	body   []byte
}

func (e *terminalError) Error() string {
	return fmt.Sprintf("node answered %d: %s", e.status, bytes.TrimSpace(e.body))
}

// relayTerminal passes a node's terminal verdict through verbatim — its
// status code and its error body — so the client sees exactly what a single
// node would have answered (a 404 stays 404, a 413 stays 413).
func (rt *Router) relayTerminal(w http.ResponseWriter, te *terminalError) {
	rt.met.errors4xx.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(te.status)
	w.Write(te.body)
}

var (
	errNoCandidates = errors.New("router: no live nodes in partition")
	errStale        = errors.New("router: replica is staler than the partition's write watermark")
)

const maxBody = 8 << 20

// parseLSNs decodes an X-SD-Repl-Lsns header ("" → nil).
func parseLSNs(h string) []uint64 {
	if h == "" {
		return nil
	}
	fields := strings.Split(h, ",")
	out := make([]uint64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// vectorCovers reports a ≥ b componentwise (the freshness order). An empty
// b is covered by anything; a shorter a cannot cover a longer b.
func vectorCovers(a, b []uint64) bool {
	if len(b) == 0 {
		return true
	}
	if len(a) < len(b) {
		return false
	}
	for i := range b {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// readCandidates orders the nodes a read may use under one topology,
// admitting only nodes the breaker allows. Qualified nodes come first: the
// leader (definitionally fresh) and every replica whose last-reported LSN
// vector covers hw — or that has never reported one, so it deserves a try.
// Known-stale replicas go last: they cannot answer a read-your-writes query
// now, but keeping them reachable lets a retry refresh their vector once
// they catch up. attempt rotates the order so consecutive retries move on
// instead of hammering the same dead node.
func (rt *Router) readCandidates(topo *topology, hw []uint64, attempt int) []*node {
	var cands, stale []*node
	if topo.leader.available(rt.cfg.ReopenAfter) {
		cands = append(cands, topo.leader)
	}
	for _, r := range topo.replicas {
		if !r.available(rt.cfg.ReopenAfter) {
			continue
		}
		if v, seen := r.lastLSNs(); seen && !vectorCovers(v, hw) {
			stale = append(stale, r)
			continue
		}
		cands = append(cands, r)
	}
	if len(cands) > 1 {
		if attempt == 0 && !rt.cfg.NoReadBalance {
			rt.balance(cands)
		} else if attempt > 0 {
			rot := attempt % len(cands)
			cands = append(cands[rot:], cands[:rot]...)
		}
	}
	return append(cands, stale...)
}

// balance applies power-of-two-choices to the qualified candidates: sample
// two distinct nodes, make the one with the lower median observed latency
// the primary and the other the hedge (positions 0 and 1). Randomizing the
// pair spreads steady-state reads across leader and fresh replicas instead
// of pinning them all on the leader; choosing the better of two keeps the
// spread from loading a slow node — the classic balanced-allocations result.
func (rt *Router) balance(cands []*node) {
	rt.rngMu.Lock()
	i := rt.rng.Intn(len(cands))
	j := rt.rng.Intn(len(cands) - 1)
	rt.rngMu.Unlock()
	if j >= i {
		j++
	}
	if cands[j].lat.quantile(0.5) < cands[i].lat.quantile(0.5) {
		i, j = j, i
	}
	cands[0], cands[i] = cands[i], cands[0]
	if j == 0 {
		// The loser originally sat where the winner landed.
		j = i
	}
	cands[1], cands[j] = cands[j], cands[1]
}

// fetchOn runs one bounded attempt against one node and applies the breaker
// and freshness disciplines. Returns the response body on 200.
func (rt *Router) fetchOn(ctx context.Context, topo *topology, n *node, method, path string, body []byte, hw []uint64) ([]byte, error) {
	tctx, cancel := context.WithTimeout(ctx, rt.cfg.TryTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(tctx, method, n.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A transport error counts against the node only while the caller still
	// wants the answer. Once ctx is done the error is the caller's own
	// cancellation (hedgedFetch cancelling the losing copy, a client hanging
	// up), which says nothing about the node; an expired TryTimeout cancels
	// only tctx, so a slow node is still blamed.
	blame := func() {
		if ctx.Err() == nil {
			n.fail(int32(rt.cfg.FailAfter))
		}
	}
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		blame()
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		// A mid-body reset lands here: the node (or the path to it) broke
		// after committing to a response. Blame it like a connect failure.
		blame()
		return nil, err
	}
	n.lat.observe(time.Since(t0))
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= http.StatusInternalServerError || resp.StatusCode == http.StatusTooManyRequests:
		// 5xx and backpressure: the node can't serve this now; retryable,
		// and consecutive ones trip the breaker.
		n.fail(int32(rt.cfg.FailAfter))
		return nil, fmt.Errorf("router: %s answered %d", n.url, resp.StatusCode)
	default:
		// Other 4xx: the request is the problem, not the node. Terminal.
		return nil, &terminalError{status: resp.StatusCode, body: data}
	}
	n.ok()
	if n != topo.leader {
		// A replica's answer is admissible only when its snapshot covers
		// every write this router has acknowledged for the partition. Either
		// way the reported vector refreshes the node's freshness cache, which
		// read candidate selection consults (readCandidates).
		v := parseLSNs(resp.Header.Get("X-SD-Repl-Lsns"))
		if v != nil {
			n.setLSNs(v)
		}
		if !vectorCovers(v, hw) {
			rt.met.staleRejects.Add(1)
			return nil, errStale
		}
		rt.met.replicaReads.Add(1)
	}
	return data, nil
}

// hedgeDelay picks how long a read waits on primary before racing a second
// copy: the configured delay, or adaptively the node's own recent p99
// (bounded to [1ms, TryTimeout/2]). 0 disables.
func (rt *Router) hedgeDelay(primary *node) time.Duration {
	if rt.cfg.HedgeDelay < 0 {
		return 0
	}
	d := rt.cfg.HedgeDelay
	if d == 0 {
		d = primary.lat.quantile(0.99)
		if d == 0 {
			d = rt.cfg.TryTimeout / 4
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if max := rt.cfg.TryTimeout / 2; d > max {
		d = max
	}
	return d
}

// hedgedFetch races primary against hedge (if any): the hedge launches when
// the primary exceeds its hedge delay, or immediately when the primary
// fails. First success wins; the loser is cancelled. Reads are the only
// hedged operations — writes go through writeToLeader, where an ambiguous
// outcome is retried under the same idempotent ID instead of raced.
func (rt *Router) hedgedFetch(ctx context.Context, topo *topology, primary, hedge *node, method, path string, body []byte, hw []uint64) ([]byte, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 2)
	launch := func(n *node) {
		go func() {
			data, err := rt.fetchOn(cctx, topo, n, method, path, body, hw)
			ch <- result{data, err}
		}()
	}
	launch(primary)
	inflight := 1
	var hedgeC <-chan time.Time
	var timer *time.Timer
	if hedge != nil {
		if d := rt.hedgeDelay(primary); d > 0 {
			timer = time.NewTimer(d)
			defer timer.Stop()
			hedgeC = timer.C
		}
	}
	var lastErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			rt.met.hedges.Add(1)
			launch(hedge)
			inflight++
		case res := <-ch:
			inflight--
			if res.err == nil {
				return res.data, nil
			}
			var te *terminalError
			if errors.As(res.err, &te) {
				return nil, res.err
			}
			lastErr = res.err
			if hedgeC != nil {
				// Primary failed before the hedge fired: fail over to the
				// hedge candidate immediately instead of waiting the delay.
				timer.Stop()
				hedgeC = nil
				launch(hedge)
				inflight++
				continue
			}
			if inflight == 0 {
				return nil, lastErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// partitionFetch is the full per-partition read discipline: candidate
// selection, hedging, then capped-backoff retries.
func (rt *Router) partitionFetch(ctx context.Context, p *partition, method, path string, body []byte) ([]byte, error) {
	hw := p.hwVector()
	var lastErr error
	backoff := rt.cfg.BackoffBase
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			rt.met.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(rt.jitter(backoff)):
			}
			if backoff *= 2; backoff > rt.cfg.BackoffCap {
				backoff = rt.cfg.BackoffCap
			}
		}
		// Reload the topology each attempt: a promotion mid-read moves the
		// leader, and later attempts should see the new regime.
		topo := p.topo.Load()
		cands := rt.readCandidates(topo, hw, attempt)
		if len(cands) == 0 {
			lastErr = errNoCandidates
			continue
		}
		var hedge *node
		if len(cands) > 1 {
			hedge = cands[1]
		}
		data, err := rt.hedgedFetch(ctx, topo, cands[0], hedge, method, path, body, hw)
		if err == nil {
			return data, nil
		}
		var te *terminalError
		if errors.As(err, &te) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// topkResponse is the router's response encoding. Without the degraded
// marker it marshals to exactly the bytes a single serve.Server would emit
// for the same results — the byte-identity contract.
type topkResponse struct {
	Results  []wireResult `json:"results"`
	Degraded bool         `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// allowPartial reads the explicit degradation opt-in from the URL.
func allowPartial(r *http.Request) bool {
	switch r.URL.Query().Get("allow_partial") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	return io.ReadAll(r.Body)
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	rt.met.reads.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Peek k and stats; the nodes do the full strict validation.
	var peek struct {
		K     int  `json:"k"`
		Stats bool `json:"stats"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode query: %w", err))
		return
	}
	if peek.Stats {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("router: stats=true is not supported through the router (per-node counters do not merge)"))
		return
	}
	if peek.K < 1 {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be ≥ 1, got %d", peek.K))
		return
	}

	lists := make([][]wireResult, len(rt.parts))
	errs := make([]error, len(rt.parts))
	var wg sync.WaitGroup
	for i, p := range rt.parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			data, err := rt.partitionFetch(r.Context(), p, http.MethodPost, "/v1/topk", body)
			if err != nil {
				errs[i] = fmt.Errorf("partition %s: %w", p.name, err)
				return
			}
			var tr struct {
				Results []wireResult `json:"results"`
			}
			if err := json.Unmarshal(data, &tr); err != nil {
				errs[i] = fmt.Errorf("partition %s: decode: %w", p.name, err)
				return
			}
			lists[i] = tr.Results
		}(i, p)
	}
	wg.Wait()

	// Scan every partition's outcome before answering: each failed partition
	// counts exactly once, and a terminal verdict anywhere wins over the
	// retryable failures — the request itself is invalid, and answering 503
	// for it would invite a pointless client retry.
	var live [][]wireResult
	var terminal *terminalError
	failed := 0
	for i := range errs {
		if errs[i] == nil {
			live = append(live, lists[i])
			continue
		}
		failed++
		rt.met.partitionFailures.Add(1)
		var te *terminalError
		if terminal == nil && errors.As(errs[i], &te) {
			terminal = te
		}
	}
	if terminal != nil {
		// The request itself is invalid — every partition would agree. Relay
		// the node's own verdict (status and body), exactly as a single node
		// would have answered.
		rt.relayTerminal(w, terminal)
		return
	}
	if failed > 0 && (!allowPartial(r) || failed == len(rt.parts)) {
		rt.met.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, joinErrs(errs))
		return
	}
	merged := mergeTopK(live, peek.K)
	if merged == nil {
		merged = []wireResult{}
	}
	resp := topkResponse{Results: merged, Degraded: failed > 0}
	if failed > 0 {
		rt.met.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.met.reads.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var peek struct {
		Queries []struct {
			K     int  `json:"k"`
			Stats bool `json:"stats"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || len(peek.Queries) == 0 {
		rt.met.errors4xx.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode batch: %v", err))
		return
	}
	for qi := range peek.Queries {
		// Same contract as handleTopK: per-node counters do not merge, so a
		// stats request must fail loudly rather than silently drop them.
		if peek.Queries[qi].Stats {
			rt.met.errors4xx.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("router: stats=true is not supported through the router (per-node counters do not merge); query %d sets it", qi))
			return
		}
	}

	// The whole batch is forwarded to every partition (each holds a row
	// subset of every query's candidate pool), then merged query-by-query.
	perPart := make([][][]wireResult, len(rt.parts))
	errs := make([]error, len(rt.parts))
	var wg sync.WaitGroup
	for i, p := range rt.parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			data, err := rt.partitionFetch(r.Context(), p, http.MethodPost, "/v1/batch", body)
			if err != nil {
				errs[i] = fmt.Errorf("partition %s: %w", p.name, err)
				return
			}
			var br struct {
				Results [][]wireResult `json:"results"`
			}
			if err := json.Unmarshal(data, &br); err != nil || len(br.Results) != len(peek.Queries) {
				errs[i] = fmt.Errorf("partition %s: malformed batch response", p.name)
				return
			}
			perPart[i] = br.Results
		}(i, p)
	}
	wg.Wait()
	// Scan every outcome before answering — returning on the first error
	// would let a retryable failure in an early partition mask a later
	// partition's terminal verdict behind a 503, and would count only one of
	// several failed partitions.
	var terminal *terminalError
	failed := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		rt.met.partitionFailures.Add(1)
		var te *terminalError
		if terminal == nil && errors.As(err, &te) {
			terminal = te
		}
	}
	if terminal != nil {
		rt.relayTerminal(w, terminal)
		return
	}
	if failed > 0 {
		// Batches have no partial mode: a batch is usually a programmatic
		// consumer that wants all-or-nothing.
		rt.met.unavailable.Add(1)
		writeError(w, http.StatusServiceUnavailable, joinErrs(errs))
		return
	}
	out := struct {
		Results [][]wireResult `json:"results"`
	}{Results: make([][]wireResult, len(peek.Queries))}
	lists := make([][]wireResult, len(rt.parts))
	for qi := range peek.Queries {
		for pi := range perPart {
			lists[pi] = perPart[pi][qi]
		}
		out.Results[qi] = mergeTopK(lists, peek.Queries[qi].K)
		if out.Results[qi] == nil {
			out.Results[qi] = []wireResult{}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func joinErrs(errs []error) error {
	var parts []string
	for _, e := range errs {
		if e != nil {
			parts = append(parts, e.Error())
		}
	}
	return fmt.Errorf("router: %s", strings.Join(parts, "; "))
}
