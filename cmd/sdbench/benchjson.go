package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
)

// benchJSON is the machine-readable benchmark report written by -json: the
// perf trajectory future PRs compare against (BENCH_sdbench.json at the repo
// root holds the committed baseline). Absolute numbers are
// hardware-dependent; the trajectory of ns/op, the allocs/op invariants, and
// the work counters (fetched/scored/rounds, which are hardware-independent)
// are the regression signal. The -baseline flag diffs a fresh report against
// a committed one and fails on regression — see diff.go for the gate rules.
type benchJSON struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated"`
	GoVersion string         `json:"go"`
	NumCPU    int            `json:"num_cpu"`
	Scale     float64        `json:"scale"`
	Workloads []workloadJSON `json:"workloads"`
}

type workloadJSON struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Dims    int    `json:"dims"`
	K       int    `json:"k"`
	Queries int    `json:"queries"`
	// GOMAXPROCS is the effective value the workload ran under. Parallel
	// workloads elevate it to NumCPU for their measurement, so a report
	// generated in a GOMAXPROCS-restricted environment still exercises —
	// and records — the parallelism it claims to measure.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Per-op figures from testing.Benchmark; for batch workloads one op is
	// the whole batch. AllocsPerOp is -1 when the workload cannot attribute
	// allocations to the measured path (mixed read/write workloads run a
	// concurrent writer whose allocations land in the same global
	// counters); the diff gate skips negative baselines.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Latency percentiles over individually timed queries — reported by the
	// mixed read/write workload, where tail latency under concurrent write
	// churn (memtable scans, segment stacks, background compaction) is the
	// signal a mean would hide.
	P50NsPerOp int64 `json:"p50_ns_per_op,omitempty"`
	P99NsPerOp int64 `json:"p99_ns_per_op,omitempty"`
	// WriterOps counts the remove+insert pairs the concurrent writer
	// completed during the measurement window (mixed workloads only) —
	// context for judging the write pressure behind the latency figures.
	WriterOps int64 `json:"writer_ops,omitempty"`
	// QPS is the end-to-end throughput of the serve load workload: requests
	// completed per wall second by the closed-loop client pool. For the
	// durable mixed workloads it is the writers' durable-mutation throughput.
	QPS float64 `json:"qps,omitempty"`
	// FsyncsPerOp is the durable mixed workloads' WAL fsync count per
	// acknowledged mutation. Under SyncAlways with concurrent writers, group
	// commit keeps it well below 1 (one fsync acknowledges a whole commit
	// window); the diff gate fails if it collapses toward one-fsync-per-write.
	FsyncsPerOp float64 `json:"fsyncs_per_op,omitempty"`
	// Availability is the cluster failover workload's fraction of reads
	// answered 200 across a measurement window that contains a hard leader
	// kill. The router's retry/failover machinery is what holds it at ~1.0;
	// the diff gate fails if it drops below 0.99 or collapses against the
	// committed baseline.
	Availability float64 `json:"availability,omitempty"`
	// WriteUnavailableMs is the cluster failover workload's write-unavailability
	// window: milliseconds from the hard leader kill to the last failed write
	// probe, after which writes to the killed partition succeed again via the
	// router's automated replica promotion. The diff gate fails if it exceeds
	// an absolute ceiling — promotion that never fires shows up here, not in
	// read availability.
	WriteUnavailableMs float64 `json:"write_unavailable_ms,omitempty"`
	// CacheHitRate is the serve/hot workload's achieved result-cache hit
	// rate (hits / lookups) under Zipf traffic. The diff gate fails if it
	// collapses to under half the baseline: the cache silently admitting
	// nothing (or invalidating everything) halves no latency number as
	// loudly as it should.
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Work counters averaged over the query set, so scheduler and
	// plan-cache wins stay visible end-to-end.
	FetchedMean     float64 `json:"fetched_mean,omitempty"`
	ScoredMean      float64 `json:"scored_mean,omitempty"`
	SubproblemsMean float64 `json:"subproblems_mean,omitempty"`
	RoundsMean      float64 `json:"rounds_mean,omitempty"`
	// PlanCacheHitRate is hits / queries: 1.0 means
	// every query after the warm-up answered from a cached plan.
	PlanCacheHitRate float64 `json:"plan_cache_hit_rate,omitempty"`
}

const benchJSONSchema = "sdbench/v9"

// collectStats runs the query set once and averages the counters.
func collectStats(idx *sdquery.SDIndex, queries []sdquery.Query) (w workloadJSON, err error) {
	var total sdquery.QueryStats
	for _, q := range queries {
		_, st, err := idx.TopKWithStats(q)
		if err != nil {
			return w, err
		}
		total.Fetched += st.Fetched
		total.Scored += st.Scored
		total.Subproblems += st.Subproblems
		total.Rounds += st.Rounds
		total.PlanCacheHits += st.PlanCacheHits
	}
	qn := float64(len(queries))
	w.FetchedMean = float64(total.Fetched) / qn
	w.ScoredMean = float64(total.Scored) / qn
	w.SubproblemsMean = float64(total.Subproblems) / qn
	w.RoundsMean = float64(total.Rounds) / qn
	w.PlanCacheHitRate = float64(total.PlanCacheHits) / qn
	return w, nil
}

// runMixedRW measures single-query latency percentiles under sustained
// concurrent write churn. The writer cycles over a working set of 5% of the
// build rows, removing and reinserting each as fast as the engine admits
// writes; every query is timed individually so the report captures the
// tail, not just the mean. Queries run through TopKAppend with a reused
// buffer — the same zero-allocation path the read-only workloads measure —
// but AllocsPerOp is reported as -1: the concurrent writer (and the
// background compactor it keeps busy) shares the process-wide counters, so
// per-query attribution would be fiction.
func runMixedRW(data [][]float64, roles []sdquery.Role, queries []sdquery.Query) (workloadJSON, error) {
	var w workloadJSON
	idx, err := sdquery.NewSDIndex(data, roles)
	if err != nil {
		return w, err
	}
	churn := len(data) / 20
	if churn < 1 {
		churn = 1
	}
	// Slots hold the current dataset ID of each churned row; removal and
	// reinsertion keep the live count constant at len(data).
	slots := make([]int, churn)
	rows := make([][]float64, churn)
	for i := range slots {
		slots[i] = len(data) - churn + i
		rows[i] = data[slots[i]]
	}
	stop := make(chan struct{})
	var writerOps int64
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i = (i + 1) % churn {
			select {
			case <-stop:
				return
			default:
			}
			idx.Remove(slots[i])
			id, err := idx.Insert(rows[i])
			if err != nil {
				// A dead writer silently turns this into a read-only
				// measurement; fail the workload instead.
				writerErr = err
				return
			}
			slots[i] = id
			writerOps++
		}
	}()

	const measureOps = 512
	var buf []sdquery.Result
	for i := 0; i < 32; i++ { // warm pools under churn
		if buf, err = idx.TopKAppend(buf[:0], queries[i%len(queries)]); err != nil {
			close(stop)
			wg.Wait()
			return w, err
		}
	}
	lats := make([]int64, 0, measureOps)
	for i := 0; i < measureOps; i++ {
		q := queries[i%len(queries)]
		t0 := time.Now()
		buf, err = idx.TopKAppend(buf[:0], q)
		lat := time.Since(t0)
		if err != nil {
			close(stop)
			wg.Wait()
			return w, err
		}
		lats = append(lats, lat.Nanoseconds())
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		return w, fmt.Errorf("mixed-rw writer died after %d ops: %w", writerOps, writerErr)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, l := range lats {
		sum += l
	}
	w.NsPerOp = sum / int64(len(lats))
	w.P50NsPerOp = lats[len(lats)/2]
	w.P99NsPerOp = lats[len(lats)*99/100]
	w.AllocsPerOp = -1
	w.BytesPerOp = -1
	w.WriterOps = writerOps
	return w, nil
}

// runDurableMixedRW measures the write-ahead log's cost, and group commit's
// recovery of it, under the given sync policy. Four writer goroutines churn
// durable remove+insert pairs through a WAL-backed WithWorkers index on the
// real filesystem while the read path is timed exactly as in runMixedRW; the
// report carries read p50/p99 (the WAL must be write-path-only — these track
// the log-less mixed-rw figures), writer throughput as QPS, and the WAL
// fsync count per acknowledged mutation. Under SyncAlways the concurrent
// writers share commit windows, so fsyncs/op sits well below 1; that
// collapse ratio, not the absolute latency, is the hardware-independent
// signal the diff gate protects.
func runDurableMixedRW(data [][]float64, roles []sdquery.Role, queries []sdquery.Query,
	policy sdquery.SyncPolicy) (workloadJSON, error) {
	var w workloadJSON
	dir, err := os.MkdirTemp("", "sdbench-wal-*")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)
	idx, err := sdquery.NewSDIndex(data, roles,
		sdquery.WithWorkers(0),
		sdquery.WithWAL(dir+"/idx"),
		sdquery.WithSyncPolicy(policy),
		sdquery.WithSyncInterval(2*time.Millisecond))
	if err != nil {
		return w, err
	}
	defer idx.Close()

	const writers = 4
	churn := len(data) / 20 / writers
	if churn < 1 {
		churn = 1
	}
	stop := make(chan struct{})
	var writerOps atomic.Int64
	writerErrs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slots := make([]int, churn)
			rows := make([][]float64, churn)
			for i := range slots {
				slots[i] = len(data) - (g+1)*churn + i
				rows[i] = data[slots[i]]
			}
			for i := 0; ; i = (i + 1) % churn {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := idx.RemoveDurable(slots[i]); err != nil {
					writerErrs[g] = err
					return
				}
				id, err := idx.Insert(rows[i])
				if err != nil {
					writerErrs[g] = err
					return
				}
				slots[i] = id
				writerOps.Add(2) // remove + insert, each individually durable
			}
		}(g)
	}

	const measureOps = 512
	var buf []sdquery.Result
	for i := 0; i < 32; i++ { // warm pools under durable churn
		if buf, err = idx.TopKAppend(buf[:0], queries[i%len(queries)]); err != nil {
			close(stop)
			wg.Wait()
			return w, err
		}
	}
	opsBefore := writerOps.Load()
	fsyncsBefore := idx.WALStats().Fsyncs
	wall := time.Now()
	lats := make([]int64, 0, measureOps)
	for i := 0; i < measureOps; i++ {
		q := queries[i%len(queries)]
		t0 := time.Now()
		buf, err = idx.TopKAppend(buf[:0], q)
		lat := time.Since(t0)
		if err != nil {
			close(stop)
			wg.Wait()
			return w, err
		}
		lats = append(lats, lat.Nanoseconds())
	}
	elapsed := time.Since(wall)
	ops := writerOps.Load() - opsBefore
	fsyncs := idx.WALStats().Fsyncs - fsyncsBefore
	close(stop)
	wg.Wait()
	for g, werr := range writerErrs {
		if werr != nil {
			return w, fmt.Errorf("durable writer %d died: %w", g, werr)
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, l := range lats {
		sum += l
	}
	w.NsPerOp = sum / int64(len(lats))
	w.P50NsPerOp = lats[len(lats)/2]
	w.P99NsPerOp = lats[len(lats)*99/100]
	w.AllocsPerOp = -1
	w.BytesPerOp = -1
	w.WriterOps = ops
	if s := elapsed.Seconds(); s > 0 && ops > 0 {
		w.QPS = float64(ops) / s
	}
	if ops > 0 {
		w.FsyncsPerOp = float64(fsyncs) / float64(ops)
	}
	return w, nil
}

// runBenchJSON measures the core micro-workloads and writes the JSON report,
// optionally gating against a committed baseline. Workload sizes follow the
// default evaluation shape (uniform data, mixed roles, U(0,1) weights)
// scaled by -scale.
func runBenchJSON(path, baselinePath string, scale float64, queryCount int, seed int64) error {
	n := int(50_000 * scale)
	if n < 1000 {
		n = 1000
	}
	if queryCount <= 0 {
		queryCount = 64
	}
	const dims, attractive, k = 6, 3, 5
	data := dataset.Generate(dataset.Uniform, n, dims, seed)
	specs, roles := bench.BatchSpecs(dims, attractive, k, queryCount, seed+1)
	queries := make([]sdquery.Query, len(specs))
	for i, sp := range specs {
		queries[i] = sdquery.Query{Point: sp.Point, K: sp.K, Roles: sp.Roles, Weights: sp.Weights}
	}

	report := benchJSON{
		Schema:    benchJSONSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Scale:     scale,
	}
	add := func(name string, r testing.BenchmarkResult, stats workloadJSON, procs int) {
		stats.Name = name
		stats.N, stats.Dims, stats.K, stats.Queries = n, dims, k, len(queries)
		stats.GOMAXPROCS = procs
		stats.NsPerOp = r.NsPerOp()
		stats.AllocsPerOp = r.AllocsPerOp()
		stats.BytesPerOp = r.AllocedBytesPerOp()
		report.Workloads = append(report.Workloads, stats)
	}

	// Single-query hot path: TopKAppend into a reused buffer (the
	// zero-allocation guarantee), plus the work counters of the query set —
	// under the default bound-driven scheduler and under the round-robin
	// ablation, so the scheduling delta is part of the committed trajectory.
	for _, mode := range []struct {
		name  string
		sched sdquery.SchedulerMode
	}{
		{"topk/sdindex-append", sdquery.SchedBoundDriven},
		{"topk/sdindex-append-roundrobin", sdquery.SchedRoundRobin},
	} {
		idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithScheduler(mode.sched))
		if err != nil {
			return err
		}
		stats, err := collectStats(idx, queries)
		if err != nil {
			return err
		}
		var buf []sdquery.Result
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = idx.TopKAppend(buf[:0], queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		add(mode.name, r, stats, runtime.GOMAXPROCS(0))
	}

	// The allocating convenience API, for the conversion-cost trajectory.
	idx, err := sdquery.NewSDIndex(data, roles)
	if err != nil {
		return err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.TopK(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("topk/sdindex", r, workloadJSON{}, runtime.GOMAXPROCS(0))

	// Intra-query segment parallelism scaling curve: the identical
	// multi-segment index (a row cap splits the build into 8 sealed
	// segments) measured sequentially (scaling-1) and with each query's
	// segments fanned out across 2, 4, and 8 claimers (the caller plus
	// width−1 pool workers). Each width pins GOMAXPROCS to
	// min(width, NumCPU) for its whole lifetime so the curve is a genuine
	// CPU-scaling measurement, and every parallel width's answers are
	// checked byte-identical to the sequential run before being timed. Work
	// counters are omitted: on the parallel path the shared prune floor
	// makes fetch depth timing-dependent, and the fetched_mean gate would
	// trip on pure scheduling noise. The diff gate instead checks the curve
	// itself — on a ≥ 4-CPU machine, scaling-4 must beat scaling-1 by ≥ 2×.
	segCap := (n + 7) / 8
	var seqAnswers [][]sdquery.Result
	for _, width := range []int{1, 2, 4, 8} {
		if err := func() error {
			prev := runtime.GOMAXPROCS(0)
			procs := width
			if procs > runtime.NumCPU() {
				procs = runtime.NumCPU()
			}
			if procs != prev {
				runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev) // restored on every path, errors included
			}
			opts := []sdquery.SDOption{sdquery.WithMaxSegmentRows(segCap)}
			if width > 1 {
				opts = append(opts, sdquery.WithWorkers(width-1))
			}
			pidx, err := sdquery.NewSDIndex(data, roles, opts...)
			if err != nil {
				return err
			}
			defer pidx.Close()
			if width == 1 {
				seqAnswers = make([][]sdquery.Result, len(queries))
				for i, q := range queries {
					if seqAnswers[i], err = pidx.TopK(q); err != nil {
						return err
					}
				}
			} else {
				for i, q := range queries {
					got, err := pidx.TopK(q)
					if err != nil {
						return err
					}
					if len(got) != len(seqAnswers[i]) {
						return fmt.Errorf("topk/scaling-%d: query %d returned %d results, sequential run has %d",
							width, i, len(got), len(seqAnswers[i]))
					}
					for rank := range got {
						if got[rank] != seqAnswers[i][rank] {
							return fmt.Errorf("topk/scaling-%d: query %d rank %d diverges from the sequential answer",
								width, i, rank)
						}
					}
				}
			}
			var buf []sdquery.Result
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					buf, err = pidx.TopKAppend(buf[:0], queries[i%len(queries)])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			add(fmt.Sprintf("topk/scaling-%d", width), r, workloadJSON{}, procs)
			return nil
		}(); err != nil {
			return err
		}
	}

	// Batch pipeline: one op = the whole batch, each query one task on a
	// WithWorkers pool of NumCPU workers. The workload elevates GOMAXPROCS
	// to NumCPU for its whole lifetime (build, warm-up, stats,
	// measurement), so a harness invoked under GOMAXPROCS=1 still measures
	// the pool it means to.
	if err := func() error {
		prev := runtime.GOMAXPROCS(0)
		procs := prev
		if runtime.NumCPU() > procs {
			procs = runtime.NumCPU()
			runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev) // restored on every path, errors included
		}
		bidx, err := sdquery.NewSDIndex(data, roles, sdquery.WithWorkers(procs))
		if err != nil {
			return err
		}
		defer bidx.Close()
		if _, err := bidx.BatchTopK(queries); err != nil { // warm pools
			return err
		}
		stats, err := collectStats(bidx, queries)
		if err != nil {
			return err
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bidx.BatchTopK(queries); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("batch/workers", r, stats, procs)
		return nil
	}(); err != nil {
		return err
	}

	// Mixed read/write: p50/p99 TopK latency on the lock-free read path
	// while a writer goroutine continuously churns 5% of the rows
	// (remove + reinsert), driving memtable fills, background seals, and
	// segment folds for the whole measurement window. This is the workload
	// the segment architecture exists for; before it, the same writer
	// stalled every query behind a lock.
	mixed, err := runMixedRW(data, roles, queries)
	if err != nil {
		return err
	}
	mixed.Name = "mixed-rw"
	mixed.N, mixed.Dims, mixed.K, mixed.Queries = n, dims, k, len(queries)
	mixed.GOMAXPROCS = runtime.GOMAXPROCS(0)
	report.Workloads = append(report.Workloads, mixed)

	// Durable mixed read/write: the same read-under-churn shape with every
	// mutation group-committed to the WAL on the real filesystem,
	// once per sync policy. always vs interval vs off quantifies what each
	// durability level costs the writers (QPS, fsyncs/op) — and the read
	// percentiles document that it costs the read path nothing.
	for _, pol := range []struct {
		name   string
		policy sdquery.SyncPolicy
	}{
		{"mixed-rw/durable-always", sdquery.SyncAlways},
		{"mixed-rw/durable-interval", sdquery.SyncInterval},
		{"mixed-rw/durable-off", sdquery.SyncNever},
	} {
		dw, err := runDurableMixedRW(data, roles, queries, pol.policy)
		if err != nil {
			return err
		}
		dw.Name = pol.name
		dw.N, dw.Dims, dw.K, dw.Queries = n, dims, k, len(queries)
		dw.GOMAXPROCS = runtime.GOMAXPROCS(0)
		report.Workloads = append(report.Workloads, dw)
	}

	// Serve load: end-to-end HTTP latency/throughput through the serving
	// layer, closed-loop clients over real TCP. Like the batch workload
	// it elevates GOMAXPROCS to NumCPU for its lifetime — the
	// serving layer's whole point is concurrent traffic.
	if err := func() error {
		prev := runtime.GOMAXPROCS(0)
		procs := prev
		if runtime.NumCPU() > procs {
			procs = runtime.NumCPU()
			runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
		}
		sw, err := runServeLoad(scale, len(queries), seed, 4096, false)
		if err != nil {
			return err
		}
		sw.Name = "serve/topk"
		sw.Queries = len(queries)
		sw.GOMAXPROCS = procs
		report.Workloads = append(report.Workloads, sw)

		// Serve hot: the same serving stack with the result cache enabled and
		// Zipf-skewed traffic — the hot-head/long-tail shape production top-k
		// traffic has. Reports the achieved hit rate (gated against collapse)
		// and the cache hit path's allocation count (gated exactly at the
		// committed baseline of zero, via AllocsPerOp).
		hw, err := runServeLoad(scale, len(queries), seed, 4096, true)
		if err != nil {
			return err
		}
		hw.Name = "serve/hot"
		hw.Queries = len(queries)
		hw.GOMAXPROCS = procs
		report.Workloads = append(report.Workloads, hw)

		// Cluster failover: a two-partition replicated cluster behind the
		// scatter-gather router, read under closed-loop load while one
		// leader is hard-killed mid-window. Reports availability (reads
		// answered across the kill) alongside qps and percentiles — the
		// robustness figure the single-node workloads cannot express.
		cw, err := runClusterFailover(scale, len(queries), seed)
		if err != nil {
			return err
		}
		cw.Name = "cluster/failover"
		cw.Queries = len(queries)
		cw.GOMAXPROCS = procs
		report.Workloads = append(report.Workloads, cw)
		return nil
	}(); err != nil {
		return err
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	if baselinePath != "" {
		return diffAgainstBaseline(baselinePath, report)
	}
	return nil
}
