package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Shared run structure. Each run generates its inputs from the seed, sets
// the deployment up cfg.setups times (keeping the last), warms it up, and
// measures for cfg.seconds. On read-only workloads the last fifth of the
// measured time is a single-client write probe.

const (
	checkInterval = 16 // oracle-check every 16th read answer of a read-only phase
	finalQueries  = 32 // queries checked against the tracked live rows at the end
	parts         = 5  // a measured window's figures are medians over this many parts
)

func windows(w workload, d time.Duration) (reads, probe time.Duration) {
	if w.readOnly {
		return d * 4 / 5, d / 5
	}
	return d, 0
}

// warm runs the workload unmeasured for a second. On topk-zipf it goes on
// until zipfWarmReads reads were answered (at most 30 seconds): the result
// cache's hit rate climbs for about that many, and a window that started
// earlier would measure the climb, whose pace follows the machine's speed.
func (r *run) warm(t *httpTarget) *result {
	out := &result{}
	for t0 := time.Now(); ; {
		out.merge(r.execute(&phase{t: t, dur: time.Second}))
		if !r.w.zipf || len(out.reads) >= zipfWarmReads || time.Since(t0) > 30*time.Second {
			return out
		}
	}
}

// bringUp sets the deployment up cfg.setups times and returns the last one
// with the median set-up time.
func bringUp(cfg config, w workload, rows [][]float64, hk hooks) (*stack, float64, error) {
	var st *stack
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
		}
		walDir := filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
		s, d, err := startStack(w, rows, walDir, hk)
		if err != nil {
			return nil, 0, err
		}
		st = s
		times = append(times, d.Seconds())
	}
	slices.Sort(times)
	return st, times[len(times)/2], nil
}

func endToEnd(cfg config, w workload) (*report, error) {
	rows := genRows(cfg.seed, cfg.rows)
	r := newRun(w, cfg.seed, rows)
	// The benchmark's own inputs and tracked rows are live before the system
	// starts; heap_mb leaves them out.
	base := liveHeap()
	st, setup, err := bringUp(cfg, w, rows, hooks{wrap: cfg.wrap})
	if err != nil {
		return nil, err
	}
	defer st.close()
	ht := newHTTPTarget(st.entry, nil)
	defer ht.close()

	rep := &report{Metrics: map[string]metric{}, Ungated: map[string]metric{}}
	warm := r.warm(ht)
	rd, pd := windows(w, time.Duration(cfg.seconds)*time.Second)
	res := r.execute(&phase{t: ht, dur: rd, probe: pd, checkEvery: checkEvery(w)})

	heap := liveHeap() - base

	bad, checked, err := r.verify(st, ht, res.answers)
	if err != nil {
		return nil, err
	}
	rep.Attempted = warm.attempted + res.attempted + checked
	rep.Failed = warm.failed + res.failed + bad
	rep.Correct = rep.Failed == 0
	writes, writeWall := res.writes, res.readWall
	if w.readOnly {
		writes, writeWall = res.probe, res.probeWall
	}
	if len(res.reads) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("no read or no write completed")
	}
	m := rep.Metrics
	m["setup_s"] = metric{setup, "s"}
	m["read_qps"] = metric{medianOfParts(res.reads, res.readWall, rate), "1/s"}
	m["read_p50_ms"] = metric{medianOfParts(res.reads, res.readWall, percentile(0.50)), "ms"}
	m["write_p50_ms"] = metric{medianOfParts(writes, writeWall, percentile(0.50)), "ms"}
	m["heap_mb"] = metric{heap / 1e6, "MB"}
	u := rep.Ungated
	u["read_p99_ms"] = metric{medianOfParts(res.reads, res.readWall, percentile(0.99)), "ms"}
	u["write_qps"] = metric{medianOfParts(writes, writeWall, rate), "1/s"}
	u["write_p99_ms"] = metric{medianOfParts(writes, writeWall, percentile(0.99)), "ms"}
	return rep, nil
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// medianOfParts cuts a window of length wall into equal parts by completion
// time, applies stat to each part's latencies, and returns the median. The
// box the benchmark runs on has episodes of a few seconds in which other
// tenants take CPU; they inflate a whole-window tail or mean, but only the
// parts they fall in.
func medianOfParts(s []sample, wall time.Duration, stat func(ds []time.Duration, span time.Duration) float64) float64 {
	span := wall / parts
	buckets := make([][]time.Duration, parts)
	for _, x := range s {
		i := min(int(x.at/span), parts-1)
		buckets[i] = append(buckets[i], x.d)
	}
	vals := make([]float64, parts)
	for i, b := range buckets {
		vals[i] = stat(b, span)
	}
	slices.Sort(vals)
	return vals[parts/2]
}

func rate(ds []time.Duration, span time.Duration) float64 {
	return float64(len(ds)) / span.Seconds()
}

func percentile(q float64) func([]time.Duration, time.Duration) float64 {
	return func(ds []time.Duration, _ time.Duration) float64 { return quantile(ds, q) }
}

// checkEvery is how often a read answer is kept for the oracle: only on
// read-only workloads, whose live rows do not change under the reads.
func checkEvery(w workload) int {
	if w.readOnly {
		return checkInterval
	}
	return 0
}

// verify lets writes settle, then checks the sampled answers and a fixed
// set of final queries against a scan of the live rows the benchmark
// tracked. It returns the mismatches and the number of final queries sent.
func (r *run) verify(st *stack, t *httpTarget, answers []answer) (bad, sent int, err error) {
	if err := st.waitCaughtUp(); err != nil {
		return 0, 0, err
	}
	r.mu.Lock()
	o, err := newOracle(r.live)
	r.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	// Read-only workloads end with their live rows as generated, so the
	// sampled answers check against the same oracle.
	final := make([]answer, 0, finalQueries)
	for i := 0; i < finalQueries; i++ {
		qi := i // topk-zipf: the hottest queries
		if !r.w.zipf {
			qi = int(r.fresh.Add(1))
		}
		got, err := t.topk(qi, r.qs.get(qi))
		if err != nil {
			r.logErr(err)
			bad++
			continue
		}
		final = append(final, answer{qi: qi, got: got})
	}
	bad += o.mismatches(r.qs, append(answers, final...), clients)
	return bad, finalQueries, nil
}
