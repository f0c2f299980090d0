package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"time"

	sdquery "repro"
	"repro/serve"
	"repro/serve/router"
)

// The traced run. After one set-up it runs, in order:
//
//  1. a single-client replay of the first replayQueries reads of the read
//     stream against the engine (ShardedIndex.TopKWithStats), whose work
//     counters repeat exactly for a seed;
//  2. an untraced phase (half of -seconds), whose before/after snapshot
//     deltas give the per-layer counts and whose read latency is the
//     reference for the tracing overhead;
//  3. a traced phase (the other half) whose spans give each layer's time.
//     On read-only workloads it ends with the write probe, whose writes
//     would have emptied the result cache before a later phase.
//
// A layer's self time is its entry point's latency minus the latency of the
// next entry point inside it, on the traced phase's requests: per request
// where the spans nest (client → router → node), and between the leaders'
// read spans and their engine calls where the coalescer answers several
// requests with one call.

const replayQueries = 64

// counters is one snapshot of every public counter the run reads.
type counters struct {
	hits, misses, admitRejects, batches, coalesced, queueRejects uint64
	fsyncs, walBytes, compactions                                uint64
	rt                                                           router.Statz
}

func (st *stack) counters() counters {
	var c counters
	for _, n := range st.nodes() {
		z := n.srv.Statz()
		c.hits += z.CacheHits
		c.misses += z.CacheMisses
		c.admitRejects += z.CacheRejects
		c.batches += z.CoalescedBatches
		c.coalesced += z.CoalescedQueries
		c.queueRejects += z.Endpoints["topk"].Rejected
	}
	for _, idx := range st.indexes() {
		ws := idx.WALStats()
		c.fsyncs += ws.Fsyncs
		c.walBytes += ws.Bytes
		c.compactions += idx.Compactions()
	}
	if st.rt != nil {
		c.rt = st.rt.Statz()
	}
	return c
}

// gauges samples segment, memtable and replication-lag levels while a phase
// runs.
type gauges struct {
	st                *stack
	n                 int
	segments, memRows int
	maxLag            uint64
}

func (g *gauges) tick() {
	for _, idx := range g.st.indexes() {
		s, m := idx.Segments()
		g.segments += s
		g.memRows += m
	}
	for _, f := range g.st.followers {
		g.maxLag = max(g.maxLag, f.srv.ReplLag())
	}
	g.n++
}

func traced(cfg config, w workload) (*report, error) {
	rows := genRows(cfg.seed, cfg.rows)
	r := newRun(w, cfg.seed, rows)
	tr := newTracer(r.qs)
	hk := hooks{wrap: tr.wrap, transport: traceTransport{http.DefaultTransport}, index: tr.index}
	if cfg.wrap != nil {
		inner := cfg.wrap
		hk.wrap = func(layer, url string, srv *serve.Server, h http.Handler) http.Handler {
			return tr.wrap(layer, url, srv, inner(layer, url, srv, h))
		}
	}
	cfg.setups = 1
	st, _, err := bringUp(cfg, w, rows, hk)
	if err != nil {
		return nil, err
	}
	defer st.close()
	m := map[string]metric{}
	rep := &report{Metrics: m}
	m["core.build_s"] = metric{st.buildS, "s"}
	bytes, live := 0, 0
	for _, idx := range st.indexes() {
		bytes += idx.Bytes()
		live += idx.Len()
	}
	m["core.index_bytes_per_row"] = metric{float64(bytes) / float64(live), "B"}

	// 1. Replay.
	replayBad, err := r.replay(m, st.indexes())
	if err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds) * time.Second
	ht := newHTTPTarget(st.entry, nil)
	defer ht.close()
	warm := r.warm(ht)
	rep.Attempted, rep.Failed = warm.attempted, warm.failed

	// 2. Untraced phase: counts.
	g := &gauges{st: st}
	before := st.counters()
	plain := r.execute(&phase{t: ht, dur: total / 2, checkEvery: checkEvery(w), tick: g.tick})
	after := st.counters()
	r.countMetrics(m, plain, before, after, g)

	// 3. Traced phase: times.
	tht := newHTTPTarget(st.entry, tr)
	defer tht.close()
	rd, pd := windows(w, total/2)
	tr.on.Store(true)
	tres := r.execute(&phase{t: tht, dur: rd, probe: pd, checkEvery: checkEvery(w)})
	tr.on.Store(false)
	timeMetrics(m, tr.snapshot())
	m["trace.read_p50_overhead_ms"] = metric{quantile(latencies(tres.reads), 0.5) - quantile(latencies(plain.reads), 0.5), "ms"}

	if err := tr.write(filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	bad, checked, err := r.verify(st, ht, append(plain.answers, tres.answers...))
	if err != nil {
		return nil, err
	}
	for _, res := range []*result{plain, tres} {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
	}
	rep.Attempted += checked + replayQueries
	rep.Failed += bad + replayBad
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// replay sends the first replayQueries reads of the read stream to every
// partition's index from one client and records their summed work counters
// in m. On a single node it also checks the answers against the oracle and
// returns the mismatches.
func (r *run) replay(m map[string]metric, idx []*sdquery.ShardedIndex) (int, error) {
	next := r.readStream(1 << 40)
	var st sdquery.QueryStats
	var results, shards int
	var answers []answer
	for _, x := range idx {
		shards += x.Shards()
	}
	for i := 0; i < replayQueries; i++ {
		qi := next()
		rq := r.qs.get(qi)
		for _, x := range idx {
			res, s, err := x.TopKWithStats(rq.q)
			if err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
			st.Fetched += s.Fetched
			st.Scored += s.Scored
			st.Rounds += s.Rounds
			st.PlanCacheHits += s.PlanCacheHits
			results += len(res)
			if len(idx) == 1 {
				answers = append(answers, answer{qi: qi, got: res})
			}
		}
	}
	bad := 0
	if len(answers) > 0 {
		o, err := newOracle(r.live)
		if err != nil {
			return 0, err
		}
		bad = o.mismatches(r.qs, answers, clients)
	}
	q := float64(replayQueries)
	m["core.fetched_per_query"] = metric{float64(st.Fetched) / q, "count"}
	m["core.scored_per_query"] = metric{float64(st.Scored) / q, "count"}
	m["core.rounds_per_query"] = metric{float64(st.Rounds) / q, "count"}
	m["core.scored_per_result"] = metric{float64(st.Scored) / float64(results), "count"}
	m["core.plan_cache_hit_rate"] = metric{float64(st.PlanCacheHits) / (q * float64(shards)), "ratio"}
	return bad, nil
}

// countMetrics turns the untraced phase's snapshot deltas and gauges into
// per-layer counts.
func (r *run) countMetrics(m map[string]metric, res *result, b, a counters, g *gauges) {
	reads := float64(len(res.reads))
	writes := float64(len(res.writes))
	lookups := float64(a.hits - b.hits + a.misses - b.misses)
	m["serve.cache_hit_rate"] = metric{ratio(float64(a.hits-b.hits), lookups), "ratio"}
	m["serve.cache_admission_rejects"] = metric{ratio(float64(a.admitRejects-b.admitRejects), reads) * 1000, "per_1k_reads"}
	m["serve.coalesced_batch_mean"] = metric{ratio(float64(a.coalesced-b.coalesced), float64(a.batches-b.batches)), "queries"}
	m["serve.queue_rejects"] = metric{float64(a.queueRejects - b.queueRejects), "count"}
	m["serve.repl_lag_records_max"] = metric{float64(g.maxLag), "records"}
	m["core.segments_per_query"] = metric{ratio(float64(g.segments), float64(g.n)), "count"}
	m["core.memtable_rows_mean"] = metric{ratio(float64(g.memRows), float64(g.n)), "rows"}
	m["core.compactions_per_1k_writes"] = metric{ratio(float64(a.compactions-b.compactions), writes) * 1000, "per_1k_writes"}
	m["core.wal_fsyncs_per_write"] = metric{ratio(float64(a.fsyncs-b.fsyncs), writes), "count"}
	m["core.wal_bytes_per_write"] = metric{ratio(float64(a.walBytes-b.walBytes), writes), "B"}
	rreads := float64(a.rt.Reads - b.rt.Reads)
	m["router.retries_per_1k"] = metric{ratio(float64(a.rt.Retries-b.rt.Retries), rreads) * 1000, "per_1k_reads"}
	m["router.hedges_per_1k"] = metric{ratio(float64(a.rt.Hedges-b.rt.Hedges), rreads) * 1000, "per_1k_reads"}
	m["router.replica_read_share"] = metric{ratio(float64(a.rt.ReplicaReads-b.rt.ReplicaReads), rreads*float64(len(a.rt.Partitions))), "ratio"}
	m["router.partition_failures"] = metric{float64(a.rt.PartitionFailures - b.rt.PartitionFailures), "count"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeMetrics derives each layer's latency from the traced phase's spans.
// The engine spans are the leaders', so serve's self time compares them
// with the leaders' node spans: followers own their indexes.
func timeMetrics(m map[string]metric, spans []*span) {
	is := func(layer, op string) func(*span) bool {
		return func(s *span) bool { return s.Layer == layer && s.Op == op }
	}
	node := func(layers []string, hit bool) func(*span) bool {
		return func(s *span) bool { return slices.Contains(layers, s.Layer) && s.Op == "read" && s.Hit == hit }
	}
	topk := durations(spans, is("sdquery", "read"))
	m["sdquery.topk_p50_ms"] = metric{quantile(topk, 0.5), "ms"}
	m["sdquery.topk_p99_ms"] = metric{quantile(topk, 0.99), "ms"}
	m["sdquery.insert_p50_ms"] = metric{quantile(durations(spans, is("sdquery", "insert")), 0.5), "ms"}
	m["sdquery.remove_p50_ms"] = metric{quantile(durations(spans, is("sdquery", "remove")), 0.5), "ms"}

	miss := durations(spans, node([]string{"leader"}, false))
	m["serve.self_p50_ms"] = metric{quantile(miss, 0.5) - quantile(topk, 0.5), "ms"}
	m["serve.self_p99_ms"] = metric{quantile(miss, 0.99) - quantile(topk, 0.99), "ms"}
	hits := durations(spans, node([]string{"leader", "follower"}, true))
	m["serve.cache_hit_p50_ms"] = metric{quantile(hits, 0.5), "ms"}

	transport, _ := selfTimes(spans, is("client", "read"))
	m["http.transport_p50_ms"] = metric{quantile(transport, 0.5), "ms"}
	rself, slowest := selfTimes(spans, is("router", "read"))
	m["router.self_p50_ms"] = metric{quantile(rself, 0.5), "ms"}
	m["router.slowest_partition_p50_ms"] = metric{quantile(slowest, 0.5), "ms"}
	wself, _ := selfTimes(spans, func(s *span) bool { return s.Layer == "router" && s.Op != "read" })
	m["router.write_self_p50_ms"] = metric{quantile(wself, 0.5), "ms"}
}
