package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// inlineRunner runs segment tasks one after another on the caller's
// goroutine: the parallel code path (shared floor, per-segment tasks) with a
// deterministic schedule.
type inlineRunner struct{}

func (inlineRunner) Do(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// TestClampAfterFloorRaise is the regression test for the bound-driven
// clamp on the parallel path. A sibling segment task can raise the shared
// floor between a step's retirement check and its batch-size clamp; the gap
// the clamp divides then goes negative, and the parent computed a batch size
// below 1 and sliced the emission buffer with it (slice bounds out of range).
// The hook raises the floor at exactly that point to the query's true k-th
// best score, the highest value any sibling could ever publish. Every query
// must complete and answer byte-identically to the sequential engine.
func TestClampAfterFloorRaise(t *testing.T) {
	roles := []query.Role{query.Repulsive, query.Attractive, query.Repulsive, query.Attractive}
	data := dataset.Generate(dataset.Uniform, 2_000, len(roles), 61)
	seq, err := New(data, Config{Roles: roles, MaxSegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(data, Config{Roles: roles, MaxSegmentRows: 64, Pool: inlineRunner{}})
	if err != nil {
		t.Fatal(err)
	}

	var kth float64
	hooked := 0
	beforeClampHook = func(c *queryCtx) {
		if c.floor != nil {
			hooked++
			c.floor.raise(kth)
		}
	}
	defer func() { beforeClampHook = nil }()

	rng := rand.New(rand.NewSource(62))
	for qi := 0; qi < 200; qi++ {
		spec := randomSpec(rng, data, roles)
		want, err := seq.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < spec.K {
			t.Fatalf("query %d: sequential answer has %d of %d rows", qi, len(want), spec.K)
		}
		kth = want[spec.K-1].Score
		got, err := par.TopK(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, sequential %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %+v, sequential %+v", qi, i, got[i], want[i])
			}
		}
	}
	if hooked == 0 {
		t.Fatal("no parallel step reached the clamp: the test exercised nothing")
	}
}
