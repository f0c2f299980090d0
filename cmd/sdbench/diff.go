package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// nsRegressionTolerance is the fractional ns/op increase a workload may show
// against the committed baseline before the diff fails. 20% absorbs
// machine-to-machine and run-to-run noise while still catching real
// regressions; the allocs/op gate below is exact, because the zero-alloc
// guarantee is an invariant, not a measurement.
const nsRegressionTolerance = 0.20

// mixedNsRegressionTolerance is the looser ns/op gate for the mixed
// read/write workload and the HTTP serve load workload: their latencies are
// measured under concurrent churn (a writer goroutine plus the background
// compactor, or a closed-loop client pool over real sockets), so run-to-run
// variance is inherently higher than the read-only workloads'. 50% still
// catches the failure modes these workloads exist to guard — queries
// serializing behind the write path, or the serving layer stalling its
// admission pipeline — which are multiples, not percentages.
const mixedNsRegressionTolerance = 0.50

// noisyWorkload reports whether a workload gets the looser latency gate.
func noisyWorkload(name string) bool {
	return strings.HasPrefix(name, "mixed") || strings.HasPrefix(name, "serve") ||
		strings.HasPrefix(name, "cluster")
}

// availabilityFloor is the absolute availability the cluster failover
// workload must clear regardless of the baseline: at least 99% of reads
// answered across a window containing a hard leader kill. Failing it means
// failover is broken in a way no latency tolerance expresses.
const availabilityFloor = 0.99

// availabilitySlack is the run-to-run noise allowance against the committed
// baseline (half a percent of reads).
const availabilitySlack = 0.005

// writeUnavailableCeilingMs is the absolute cap on the cluster failover
// workload's write-unavailability window: the hard leader kill must be healed
// by automated replica promotion within this many milliseconds, or writes to
// the killed partition are effectively down. The workload runs with
// PromoteAfter at 750ms, so a healthy promotion lands well under a second;
// 5s absorbs a slow machine's probe/health-check jitter while still failing
// a promotion path that silently stopped firing (the workload reports a
// 30,000ms sentinel when writes never recover).
const writeUnavailableCeilingMs = 5000

// scalingSpeedupFloor is the minimum topk/scaling-1 ÷ topk/scaling-4
// speedup the fresh report must show on a machine with at least
// scalingGateMinCPU CPUs. Unlike every other gate it compares the fresh
// report against itself, not against the baseline: a baseline committed
// from a small machine records a flat curve (scaling on one core is
// physically impossible), and diffing flat-vs-flat would let intra-query
// parallelism silently die on the multi-core machines it exists for. Below
// the CPU floor the gate is off — the curve is legitimately flat there.
const scalingSpeedupFloor = 2.0

// scalingGateMinCPU is the CPU count at which the scaling gate arms: with
// four cores and four claimers over eight segments, a healthy fan-out
// clears 2× with room to spare.
const scalingGateMinCPU = 4

// fetchedRegressionTolerance gates the hardware-independent signal: on
// single-engine workloads the sorted-access count is a deterministic
// function of the seeded workload and the algorithm, identical on every
// machine, so it catches algorithmic regressions that timing noise would
// hide. The small headroom only keeps a deliberate off-by-a-few change from
// blocking CI; any real change to fetch behaviour must regenerate the
// baseline in the same commit.
const fetchedRegressionTolerance = 0.05

// diffAgainstBaseline loads the committed baseline report and fails (with
// every violation listed) when the fresh report regresses:
//
//   - a workload present in the baseline is missing from the fresh report
//     (renames must update the baseline, not silently drop coverage);
//   - ns/op grew by more than nsRegressionTolerance;
//   - a workload that was allocation-free in the baseline allocates;
//   - a single-engine ("topk/…") workload's fetched_mean grew by more than
//     fetchedRegressionTolerance — the deterministic, hardware-independent
//     regression signal. Other workloads (batch, mixed, serve, cluster)
//     carry no fetched gate.
//
// The scales must match — ns/op across different dataset sizes is
// meaningless — and so must the schema.
func diffAgainstBaseline(baselinePath string, fresh benchJSON) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != fresh.Schema {
		return fmt.Errorf("baseline schema %q != report schema %q: regenerate the baseline", base.Schema, fresh.Schema)
	}
	if base.Scale != fresh.Scale {
		return fmt.Errorf("baseline scale %g != report scale %g: ns/op is not comparable across scales", base.Scale, fresh.Scale)
	}
	byName := make(map[string]workloadJSON, len(fresh.Workloads))
	for _, w := range fresh.Workloads {
		byName[w.Name] = w
	}
	var violations []string
	for _, b := range base.Workloads {
		f, ok := byName[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("workload %q: present in baseline, missing from report", b.Name))
			continue
		}
		// Batch ns/op and the per-query counter means both scale with the
		// query count, so a -queries mismatch would fake (or mask) a
		// regression exactly like a scale mismatch.
		if b.Queries != f.Queries {
			violations = append(violations, fmt.Sprintf(
				"workload %q: %d queries, baseline has %d: not comparable", b.Name, f.Queries, b.Queries))
			continue
		}
		nsTol := nsRegressionTolerance
		if noisyWorkload(b.Name) {
			nsTol = mixedNsRegressionTolerance
		}
		if limit := float64(b.NsPerOp) * (1 + nsTol); float64(f.NsPerOp) > limit {
			violations = append(violations, fmt.Sprintf(
				"workload %q: ns/op %d exceeds baseline %d by more than %.0f%%",
				b.Name, f.NsPerOp, b.NsPerOp, nsTol*100))
		}
		// Tail-latency gate for workloads that report percentiles (mixed
		// read/write): the p99 regressing while the mean holds is exactly
		// the "writer stalls a few unlucky queries" signature.
		if b.P99NsPerOp > 0 && f.P99NsPerOp > 0 {
			if limit := float64(b.P99NsPerOp) * (1 + mixedNsRegressionTolerance); float64(f.P99NsPerOp) > limit {
				violations = append(violations, fmt.Sprintf(
					"workload %q: p99 ns/op %d exceeds baseline %d by more than %.0f%%",
					b.Name, f.P99NsPerOp, b.P99NsPerOp, mixedNsRegressionTolerance*100))
			}
		}
		// AllocsPerOp < 0 marks an unattributable measurement (concurrent
		// writer sharing the global counters) — no alloc invariant to gate.
		if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
			violations = append(violations, fmt.Sprintf(
				"workload %q: %d allocs/op, baseline guarantees 0", b.Name, f.AllocsPerOp))
		}
		// Cache gate: a baseline that achieved a real hit rate under Zipf
		// traffic must not collapse to under half of it. Hit-rate noise
		// run-to-run is small (the workload is seeded); a halving means the
		// cache stopped admitting, started invalidating everything, or the
		// sketch stopped tracking the head — all silent correctness-adjacent
		// failures the latency tolerances are too loose to catch.
		if b.CacheHitRate > 0 && f.CacheHitRate < b.CacheHitRate*0.5 {
			violations = append(violations, fmt.Sprintf(
				"workload %q: cache_hit_rate %.3f collapsed from baseline %.3f",
				b.Name, f.CacheHitRate, b.CacheHitRate))
		}
		// Group-commit gate: a durable workload whose baseline shows commit
		// windows being shared (fsyncs/op well below one mutation) must keep
		// sharing them. fsyncs/op drifting up to ~1 means every writer fsyncs
		// alone again — the group-commit batcher has silently stopped
		// batching, which the loose latency tolerances won't catch. Exact
		// batching ratios are timing-dependent, so the gate allows a doubling
		// plus absolute headroom before failing; it also fails in the other
		// direction, on a durable-always baseline whose fresh report stops
		// fsyncing entirely.
		if b.FsyncsPerOp > 0 {
			if limit := b.FsyncsPerOp*2 + 0.1; f.FsyncsPerOp > limit {
				violations = append(violations, fmt.Sprintf(
					"workload %q: fsyncs/op %.3f vs baseline %.3f — group commit stopped collapsing fsyncs",
					b.Name, f.FsyncsPerOp, b.FsyncsPerOp))
			}
			if strings.HasSuffix(b.Name, "durable-always") && f.FsyncsPerOp == 0 {
				violations = append(violations, fmt.Sprintf(
					"workload %q: 0 fsyncs under SyncAlways, baseline %.3f — writes are no longer durable",
					b.Name, b.FsyncsPerOp))
			}
		}
		// Availability gate: the failover workload must keep ~every read
		// answered across the leader kill — both absolutely (the 99% floor)
		// and relative to the committed baseline (no silent erosion). A drop
		// here means retries, ejection, or replica failover stopped masking
		// the kill, whatever the latency numbers say.
		if b.Availability > 0 {
			if f.Availability < availabilityFloor {
				violations = append(violations, fmt.Sprintf(
					"workload %q: availability %.4f below the %.2f floor — failover is not masking node loss",
					b.Name, f.Availability, availabilityFloor))
			} else if f.Availability < b.Availability-availabilitySlack {
				violations = append(violations, fmt.Sprintf(
					"workload %q: availability %.4f collapsed from baseline %.4f",
					b.Name, f.Availability, b.Availability))
			}
		}
		// Write-unavailability gate: absolute, like the availability floor.
		// The baseline carrying the field arms the gate; the fresh number is
		// judged against the fixed ceiling, not the baseline, because the
		// quantity is mostly the PromoteAfter constant plus jitter — a
		// lucky-fast baseline must not ratchet the requirement.
		if b.WriteUnavailableMs > 0 && f.WriteUnavailableMs > writeUnavailableCeilingMs {
			violations = append(violations, fmt.Sprintf(
				"workload %q: write-unavailability window %.0fms exceeds the %dms ceiling — automated promotion is not healing the killed partition",
				b.Name, f.WriteUnavailableMs, writeUnavailableCeilingMs))
		}
		if strings.HasPrefix(b.Name, "topk/") && b.FetchedMean > 0 {
			if limit := b.FetchedMean * (1 + fetchedRegressionTolerance); f.FetchedMean > limit {
				violations = append(violations, fmt.Sprintf(
					"workload %q: fetched_mean %.1f exceeds baseline %.1f by more than %.0f%% (hardware-independent)",
					b.Name, f.FetchedMean, b.FetchedMean, fetchedRegressionTolerance*100))
			}
		}
	}
	// Scaling-collapse gate: on a multi-core machine the intra-query
	// parallelism curve must show real speedup. See scalingSpeedupFloor for
	// why this checks the fresh report against itself.
	if fresh.NumCPU >= scalingGateMinCPU {
		s1, ok1 := byName["topk/scaling-1"]
		s4, ok4 := byName["topk/scaling-4"]
		if ok1 && ok4 && s4.NsPerOp > 0 &&
			float64(s1.NsPerOp) < float64(s4.NsPerOp)*scalingSpeedupFloor {
			violations = append(violations, fmt.Sprintf(
				"workload %q: %.2f× over topk/scaling-1 (%d vs %d ns/op) on a %d-CPU machine, want ≥ %.1f× — intra-query parallelism is not scaling",
				"topk/scaling-4", float64(s1.NsPerOp)/float64(s4.NsPerOp),
				s4.NsPerOp, s1.NsPerOp, fresh.NumCPU, scalingSpeedupFloor))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchmark regression vs %s:\n  %s", baselinePath, strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "sdbench: no regression vs %s (%d workloads, ns tolerance %.0f%%)\n",
		baselinePath, len(base.Workloads), nsRegressionTolerance*100)
	return nil
}
