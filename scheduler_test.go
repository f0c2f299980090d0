// Scheduler and plan-cache tests: the bound-driven schedule and the plan
// cache are pure performance features — answers must stay byte-identical to
// the round-robin ablation (and hence to the scan oracle) under every knob
// combination, and the performance claims (fewer sorted accesses, cache
// hits) are pinned so they cannot silently rot.
package sdquery_test

import (
	"math/rand"
	"testing"

	sdquery "repro"
	"repro/internal/dataset"
)

// TestSchedulerEquivalenceProperty drives random specs through the same
// dataset under every scheduler × plan-cache × pairing combination and
// requires byte-identical answers. This is the re-proof of the
// prune-at-first-emission argument for non-uniform access order, run as a
// property: a point's first emission is bounded by every sibling frontier
// regardless of the order frontiers were advanced in, so no schedule may
// change what is pruned, scored, or returned.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(400)
		dims := 1 + rng.Intn(6)
		dist := []dataset.Distribution{dataset.Uniform, dataset.Correlated, dataset.AntiCorrelated}[trial%3]
		data := dataset.Generate(dist, n, dims, int64(trial))
		// Quantize half the trials so exact score ties are common — the
		// regime where a scheduling difference would first leak into
		// answers through the ID tie-break.
		if trial%2 == 0 {
			for _, row := range data {
				for d := range row {
					row[d] = float64(int(row[d]*4)) / 4
				}
			}
		}
		roles := make([]sdquery.Role, dims)
		active := false
		for d := range roles {
			roles[d] = sdquery.Role(rng.Intn(3))
			active = active || roles[d] != sdquery.Ignored
		}
		if !active {
			roles[rng.Intn(dims)] = sdquery.Repulsive
		}

		type variant struct {
			name string
			eng  *sdquery.SDIndex
		}
		var variants []variant
		for _, v := range []struct {
			name string
			opts []sdquery.SDOption
		}{
			{"bound-driven", nil},
			{"round-robin", []sdquery.SDOption{sdquery.WithScheduler(sdquery.SchedRoundRobin)}},
			{"no-plan-cache", []sdquery.SDOption{sdquery.WithPlanCache(false)}},
			{"round-robin/no-cache/in-order", []sdquery.SDOption{
				sdquery.WithScheduler(sdquery.SchedRoundRobin),
				sdquery.WithPlanCache(false),
				sdquery.WithPairing(sdquery.PairInOrder),
			}},
			// Intra-query segment parallelism is a scheduling choice too: the
			// segment tasks' interleaving (and the shared floor's timing) must
			// not leak into answers. Small segment caps force real multi-
			// segment stacks on these tiny datasets.
			{"parallel", []sdquery.SDOption{
				sdquery.WithWorkers(2),
				sdquery.WithMaxSegmentRows(32),
			}},
			{"parallel/round-robin/float32", []sdquery.SDOption{
				sdquery.WithWorkers(3),
				sdquery.WithMaxSegmentRows(17),
				sdquery.WithScheduler(sdquery.SchedRoundRobin),
				sdquery.WithColumnWidth(32),
			}},
		} {
			eng, err := sdquery.NewSDIndex(data, roles, v.opts...)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.name, err)
			}
			variants = append(variants, variant{v.name, eng})
		}

		for qi := 0; qi < 12; qi++ {
			q := sdquery.Query{
				Point:   make([]float64, dims),
				K:       1 + rng.Intn(n+2),
				Roles:   append([]sdquery.Role(nil), roles...),
				Weights: make([]float64, dims),
			}
			for d := 0; d < dims; d++ {
				q.Point[d] = float64(rng.Intn(9)) / 8
				switch rng.Intn(4) {
				case 0:
					q.Weights[d] = 0
				case 1:
					q.Weights[d] = 1
				default:
					q.Weights[d] = rng.Float64()
				}
			}
			want, err := variants[0].eng.TopK(q)
			if err != nil {
				t.Fatalf("trial %d query %d %s: %v", trial, qi, variants[0].name, err)
			}
			for _, v := range variants[1:] {
				got, err := v.eng.TopK(q)
				if err != nil {
					t.Fatalf("trial %d query %d %s: %v", trial, qi, v.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d query %d: %s returned %d results, %s returned %d\nq=%+v",
						trial, qi, v.name, len(got), variants[0].name, len(want), q)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d query %d rank %d: %s got %+v, %s got %+v\nq=%+v",
							trial, qi, i, v.name, got[i], variants[0].name, want[i], q)
					}
				}
			}
		}
		for _, v := range variants {
			v.eng.Close() // release the parallel variants' worker pools
		}
	}
}

// TestBoundDrivenFetchesLess pins the scheduling win where it is most
// pronounced: skewed weights make one subproblem's frontier dominate, the
// situation a fixed rotation wastes accesses on. The bound-driven schedule
// must perform strictly fewer sorted accesses than round-robin on the same
// engine configuration, at identical answers.
func TestBoundDrivenFetchesLess(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 10_000, 6, 7)
	roles := []sdquery.Role{
		sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive,
		sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive,
	}
	// One dominant pair, two weak ones: rotation keeps draining the weak
	// frontiers long after they stopped mattering.
	q := sdquery.Query{
		Point:   []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		K:       5,
		Roles:   roles,
		Weights: []float64{10, 10, 0.1, 0.1, 0.1, 0.1},
	}

	fetched := map[sdquery.SchedulerMode]int{}
	var answers [][]sdquery.Result
	for _, mode := range []sdquery.SchedulerMode{sdquery.SchedBoundDriven, sdquery.SchedRoundRobin} {
		idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithScheduler(mode))
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := idx.TopKWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds == 0 {
			t.Fatalf("%v: Stats.Rounds not reported", mode)
		}
		fetched[mode] = st.Fetched
		answers = append(answers, res)
	}
	for i := range answers[0] {
		if answers[0][i] != answers[1][i] {
			t.Fatalf("schedulers disagree at rank %d: %+v vs %+v", i, answers[0][i], answers[1][i])
		}
	}
	if bd, rr := fetched[sdquery.SchedBoundDriven], fetched[sdquery.SchedRoundRobin]; bd >= rr {
		t.Fatalf("bound-driven fetched %d, round-robin %d: scheduling win regressed", bd, rr)
	}
}

// TestPlanCache pins the cache contract: repeated shapes hit, distinct
// shapes (different zero-weight or role patterns) miss then hit, disabling
// the cache reports no hits, and a cached role-mismatch error is still an
// error on every repetition.
func TestPlanCache(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 500, 4, 11)
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	idx, err := sdquery.NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	q := sdquery.Query{
		Point:   []float64{0.1, 0.2, 0.3, 0.4},
		K:       3,
		Roles:   roles,
		Weights: []float64{1, 0.5, 0.25, 2},
	}
	_, st, err := idx.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("first query of a shape reported a cache hit")
	}
	// Same shape, different weights and point: must hit.
	q2 := q
	q2.Point = []float64{0.9, 0.8, 0.7, 0.6}
	q2.Weights = []float64{2, 1, 0.125, 0.5}
	_, st, err = idx.TopKWithStats(q2)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 1 {
		t.Fatalf("repeated shape missed the plan cache (hits = %d)", st.PlanCacheHits)
	}
	// A zero weight changes the shape: miss, then hit.
	q3 := q
	q3.Weights = []float64{1, 0, 0.25, 2}
	if _, st, err = idx.TopKWithStats(q3); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("new shape (zero weight) reported a cache hit")
	}
	if _, st, err = idx.TopKWithStats(q3); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 1 {
		t.Fatalf("repeated zero-weight shape missed the plan cache")
	}
	// Role flips are errors on every repetition, cached or not.
	bad := q
	bad.Roles = []sdquery.Role{sdquery.Attractive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	for i := 0; i < 2; i++ {
		if _, _, err := idx.TopKWithStats(bad); err == nil {
			t.Fatalf("role flip accepted (attempt %d)", i+1)
		}
	}
	// Error shapes are not published, so legitimate shapes still cache after
	// error churn (invalid-shape traffic must not fill the capped cache).
	after := q
	after.Weights = []float64{1, 0.5, 0, 2}
	if _, st, err = idx.TopKWithStats(after); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("fresh shape after error churn reported a hit")
	}
	if _, st, err = idx.TopKWithStats(after); err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits != 1 {
		t.Fatalf("shape published after error churn missed the cache")
	}

	// Disabled cache: never hits, same answers.
	off, err := sdquery.NewSDIndex(data, roles, sdquery.WithPlanCache(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, st, err := off.TopKWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.PlanCacheHits != 0 {
			t.Fatalf("disabled plan cache reported hits")
		}
	}
	want, err := idx.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := off.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan cache changed answers at rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestShardedStats: on a pooled multi-segment index the stats surface must
// sum the per-segment tasks' work and report the plan-cache hit once, with
// answers identical to the fast path. (The name predates the single-engine
// index.)
func TestShardedStats(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 4_000, 4, 13)
	roles := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive, sdquery.Attractive}
	idx, err := sdquery.NewSDIndex(data, roles, sdquery.WithWorkers(4), sdquery.WithMaxSegmentRows(1_000))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := sdquery.Query{
		Point:   []float64{0.3, 0.7, 0.1, 0.9},
		K:       7,
		Roles:   roles,
		Weights: []float64{0.8, 0.5, 0.3, 0.9},
	}
	if _, _, err := idx.TopKWithStats(q); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	res, st, err := idx.TopKWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched <= 0 || st.Scored <= 0 || st.Rounds <= 0 {
		t.Fatalf("segment stats not aggregated: %+v", st)
	}
	if st.Segments != 4 || st.Subproblems < st.Segments {
		t.Fatalf("stats report %d segments and %d subproblems, want 4 segments with at least one subproblem each",
			st.Segments, st.Subproblems)
	}
	if st.PlanCacheHits != 1 {
		t.Fatalf("warm query reported %d plan-cache hits, want 1", st.PlanCacheHits)
	}
	want, err := idx.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("stats path returned %d results, fast path %d", len(res), len(want))
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("stats path diverges at rank %d: %+v vs %+v", i, res[i], want[i])
		}
	}
}
