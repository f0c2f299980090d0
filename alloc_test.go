package sdquery

// Steady-state allocation tests: the batched hot path promises that once
// the per-engine context pools are warm, a query performs zero heap
// allocations. These assertions are what keeps future changes honest — a
// regression here silently re-introduces per-query GC pressure long before
// it shows up in wall-clock benchmarks.

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func allocRoles() []Role {
	return []Role{Repulsive, Attractive, Repulsive, Attractive}
}

func allocQuery() Query {
	return Query{
		Point:   []float64{0.3, 0.7, 0.1, 0.9},
		K:       10,
		Roles:   allocRoles(),
		Weights: []float64{0.8, 0.5, 0.3, 0.9},
	}
}

// measureAllocs warms f, forces a GC so pool clearing cannot land inside the
// measurement window, and returns the average allocations per run.
func measureAllocs(f func()) float64 {
	for i := 0; i < 20; i++ {
		f()
	}
	runtime.GC()
	return testing.AllocsPerRun(100, f)
}

func TestTopKAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles())
	if err != nil {
		t.Fatal(err)
	}
	q := allocQuery()
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SDIndex.TopKAppend allocates %.2f objects per query in steady state, want 0", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}

// TestShardQueryPathZeroAllocs pins the batch member's query path: a query
// through a sequential view into a reused buffer — the unit BatchTopK runs
// once per query on the pool — allocates nothing in steady state, also on
// a multi-segment WithWorkers index whose own queries would fan out. (The
// name predates the single-engine index; the path it guards is the same
// per-task unit.)
func TestShardQueryPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithWorkers(4), WithMaxSegmentRows(2_500))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	view := idx.eng.View().Sequential()
	q := allocQuery()
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.appendVia(view, buf[:0], q, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("batch member query path allocates %.2f objects per query in steady state, want 0", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}

// TestTopKAppendZeroAllocsParallel pins the intra-query fan-out: with
// WithWorkers and a segment cap forcing a multi-segment stack, a warm query
// still allocates nothing — the per-segment task contexts come from the
// engine's context pool, the dispatch state (claim counter, barrier, claim
// closure) is pooled inside the worker pool, and the parent's merge drains
// through pooled buffers.
func TestTopKAppendZeroAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithWorkers(2), WithMaxSegmentRows(2_500))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if segs, _ := idx.Segments(); segs != 4 {
		t.Fatalf("expected 4 sealed segments under the row cap, have %d", segs)
	}
	q := allocQuery()
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("parallel TopKAppend allocates %.2f objects per query in steady state, want 0", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}

// TestTopKAppendZeroAllocsAfterInsert pins the memtable query path: rows
// appended by Insert are covered by regrown pooled bitsets and scored by
// the exact memtable scan, neither of which may allocate in steady state.
// Compaction is disabled so the memtable is guaranteed to hold rows during
// the measurement (a background seal mid-window would be charged to the
// query by testing.AllocsPerRun's global counters).
func TestTopKAppendZeroAllocsAfterInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 2_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	q := allocQuery()
	// Warm the context pool at the build-time dataset size, then grow the
	// dataset well past the original bitset coverage.
	var buf []Result
	for i := 0; i < 8; i++ {
		if buf, err = idx.TopKAppend(buf[:0], q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1_000; i++ {
		if _, err := idx.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, mem := idx.Segments(); mem != 1_000 {
		t.Fatalf("expected 1000 memtable rows, have %d", mem)
	}
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("post-Insert queries allocate %.2f objects per query (memtable scan or stale bitset regression), want 0", avg)
	}
}

// TestTopKAppendZeroAllocsCompacted pins the acceptance contract of the
// segment refactor: after update churn and an explicit Compact — one sealed
// segment, empty memtable — the hot path is exactly as allocation-free as a
// freshly built index, snapshot acquisition included (a single atomic
// load).
func TestTopKAppendZeroAllocsCompacted(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise alloc-free paths")
	}
	data := dataset.Generate(dataset.Uniform, 10_000, 4, 1)
	idx, err := NewSDIndex(data, allocRoles(), WithMemtableSize(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2_000; i++ {
		if _, err := idx.Insert([]float64{0.1, 0.9, 0.4, 0.6}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			idx.Remove(i * 4 % 10_000)
		}
	}
	idx.Compact()
	if segs, mem := idx.Segments(); segs != 1 || mem != 0 {
		t.Fatalf("after Compact: %d segments, %d memtable rows, want 1, 0", segs, mem)
	}
	q := allocQuery()
	var buf []Result
	avg := measureAllocs(func() {
		var err error
		buf, err = idx.TopKAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("compacted-index queries allocate %.2f objects per query in steady state, want 0", avg)
	}
	if len(buf) != q.K {
		t.Fatalf("got %d results, want %d", len(buf), q.K)
	}
}
