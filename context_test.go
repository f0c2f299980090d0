package sdquery

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestTopKContextCancel pins the cancellation contract on a sequential and
// a pooled, multi-segment index:
// a context cancelled before the call returns promptly with ctx.Err() and no
// results; an uncancelled context answers byte-identically to the plain
// path; and a mid-flight deadline yields either the full correct answer
// (the query beat the clock) or context.DeadlineExceeded — never a partial
// or wrong result set.
func TestTopKContextCancel(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 20_000, 4, 3)
	roles := allocRoles()
	q := allocQuery()

	sd, err := NewSDIndex(data, roles)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewSDIndex(data, roles, WithWorkers(4), WithMaxSegmentRows(5_000))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()

	want, err := sd.TopK(q)
	if err != nil {
		t.Fatal(err)
	}

	type ctxEngine struct {
		name string
		run  func(ctx context.Context) ([]Result, error)
	}
	engines := []ctxEngine{
		{"sdindex", func(ctx context.Context) ([]Result, error) { return sd.TopKContext(ctx, q) }},
		{"pooled", func(ctx context.Context) ([]Result, error) { return pooled.TopKContext(ctx, q) }},
	}
	for _, e := range engines {
		// Pre-cancelled: prompt ctx.Err(), no results.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		res, err := e.run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled context: err = %v, want context.Canceled", e.name, err)
		}
		if len(res) != 0 {
			t.Fatalf("%s: pre-cancelled context returned %d results", e.name, len(res))
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: pre-cancelled query took %v, want prompt return", e.name, d)
		}

		// Live context: identical to the plain path.
		got, err := e.run(context.Background())
		if err != nil {
			t.Fatalf("%s: live context: %v", e.name, err)
		}
		sameResults(t, e.name+"/live-context", got, want)

		// Mid-flight deadline: either the exact answer or the ctx error.
		tctx, tcancel := context.WithTimeout(context.Background(), 20*time.Microsecond)
		got, err = e.run(tctx)
		tcancel()
		switch {
		case err == nil:
			sameResults(t, e.name+"/beat-the-clock", got, want)
		case errors.Is(err, context.DeadlineExceeded):
		default:
			t.Fatalf("%s: deadline run: unexpected error %v", e.name, err)
		}
	}
}

// TestBatchTopKContextCancel pins BatchTopKContext's cancellation contract
// with and without a worker pool: a pre-cancelled context returns
// context.Canceled and no results, a live context answers every member
// exactly like TopK, and a mid-flight deadline yields either the complete
// correct batch or context.DeadlineExceeded.
func TestBatchTopKContextCancel(t *testing.T) {
	data := dataset.Generate(dataset.Uniform, 20_000, 4, 3)
	roles := allocRoles()
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = allocQuery()
		queries[i].K = 1 + i
	}
	for _, tc := range []struct {
		name string
		opts []SDOption
	}{
		{"sequential", nil},
		{"pooled", []SDOption{WithWorkers(4), WithMaxSegmentRows(5_000)}},
	} {
		idx, err := NewSDIndex(data, roles, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		want := make([][]Result, len(queries))
		for i, q := range queries {
			if want[i], err = idx.TopK(q); err != nil {
				t.Fatal(err)
			}
		}
		check := func(label string, got [][]Result) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d answers, want %d", tc.name, label, len(got), len(want))
			}
			for i := range want {
				sameResults(t, tc.name+"/"+label, got[i], want[i])
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, err := idx.BatchTopKContext(ctx, queries)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("%s: pre-cancelled batch: %d answers, err %v; want none and context.Canceled", tc.name, len(got), err)
		}

		got, err = idx.BatchTopKContext(context.Background(), queries)
		if err != nil {
			t.Fatalf("%s: live context: %v", tc.name, err)
		}
		check("live-context", got)

		tctx, tcancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		got, err = idx.BatchTopKContext(tctx, queries)
		tcancel()
		switch {
		case err == nil:
			check("beat-the-clock", got)
		case errors.Is(err, context.DeadlineExceeded):
		default:
			t.Fatalf("%s: deadline run: unexpected error %v", tc.name, err)
		}
	}
}

// TestTopKContextLeaksNoPooledBuffers is the serving layer's resource
// guarantee: a storm of cancelled queries must return every pooled context
// (stream heaps, bitsets, scratch buffers) to the engine pools, so the
// zero-allocation steady state of the uncancelled hot path survives intact.
func TestTopKContextLeaksNoPooledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles())
	if err != nil {
		t.Fatal(err)
	}
	q := allocQuery()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if _, err := idx.TopKContext(canceled, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query %d: err = %v", i, err)
		}
		// Interleave live queries so cancelled and completed paths share the
		// same pool cycle.
		if _, err := idx.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("hot path allocates %.2f objects per query after cancellation storm, want 0 (pooled buffer leak)", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}
