package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, b benchJSON) string {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffAgainstBaseline pins the CI gate's rules: pass within tolerance,
// fail on >20% ns/op growth, fail on any allocation in a zero-alloc
// workload, fail on dropped workloads, and refuse scale/schema mismatches.
func TestDiffAgainstBaseline(t *testing.T) {
	base := benchJSON{
		Schema: benchJSONSchema,
		Scale:  1,
		Workloads: []workloadJSON{
			{Name: "topk/sdindex-append", NsPerOp: 1_000_000, AllocsPerOp: 0, FetchedMean: 2000},
			{Name: "topk/sdindex", NsPerOp: 1_000_000, AllocsPerOp: 4},
			{Name: "batch/workers", NsPerOp: 1_000_000, AllocsPerOp: 70, FetchedMean: 2000},
			{Name: "serve/hot", NsPerOp: 1_000_000, AllocsPerOp: 0, CacheHitRate: 0.8},
			{Name: "cluster/failover", NsPerOp: 1_000_000, AllocsPerOp: -1, Availability: 0.999, WriteUnavailableMs: 800},
		},
	}
	path := writeBaseline(t, base)

	ok := benchJSON{Schema: benchJSONSchema, Scale: 1, Workloads: []workloadJSON{
		{Name: "topk/sdindex-append", NsPerOp: 1_150_000, AllocsPerOp: 0, FetchedMean: 2040}, // +15% ns, +2% fetched: within tolerance
		{Name: "topk/sdindex", NsPerOp: 900_000, AllocsPerOp: 6},                             // allocs gated only at baseline 0
		{Name: "batch/workers", NsPerOp: 1_000_000, AllocsPerOp: 70, FetchedMean: 9000},      // only topk/ workloads carry the fetched gate
		{Name: "serve/hot", NsPerOp: 1_400_000, AllocsPerOp: 0, CacheHitRate: 0.5},           // noisy latency gate, hit rate above half of baseline
		{Name: "cluster/failover", NsPerOp: 1_400_000, AllocsPerOp: -1,
			Availability: 0.996, WriteUnavailableMs: 4_500}, // both absolute gates: above the floor, under the ceiling
		{Name: "topk/new-workload", NsPerOp: 1, AllocsPerOp: 99}, // extra workloads are fine
	}}
	if err := diffAgainstBaseline(path, ok); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		mut  func(*benchJSON)
		want string
	}{
		{"ns regression", func(b *benchJSON) { b.Workloads[0].NsPerOp = 1_250_000 }, "exceeds baseline"},
		{"alloc regression", func(b *benchJSON) { b.Workloads[0].AllocsPerOp = 1 }, "guarantees 0"},
		{"fetched regression", func(b *benchJSON) { b.Workloads[0].FetchedMean = 2200 }, "hardware-independent"},
		{"queries mismatch", func(b *benchJSON) { b.Workloads[0].Queries = 128 }, "not comparable"},
		{"hit rate collapse", func(b *benchJSON) { b.Workloads[3].CacheHitRate = 0.3 }, "cache_hit_rate"},
		{"hit path allocates", func(b *benchJSON) { b.Workloads[3].AllocsPerOp = 2 }, "guarantees 0"},
		{"availability floor", func(b *benchJSON) { b.Workloads[4].Availability = 0.985 }, "below the 0.99 floor"},
		{"availability collapse", func(b *benchJSON) { b.Workloads[4].Availability = 0.991 }, "collapsed from baseline"},
		{"write-unavailability ceiling", func(b *benchJSON) { b.Workloads[4].WriteUnavailableMs = 30_000 }, "ceiling"},
		{"missing workload", func(b *benchJSON) { b.Workloads = b.Workloads[1:] }, "missing from report"},
		{"scale mismatch", func(b *benchJSON) { b.Scale = 0.25 }, "not comparable"},
		{"schema mismatch", func(b *benchJSON) { b.Schema = "sdbench/v1" }, "regenerate the baseline"},
	} {
		fresh := benchJSON{Schema: benchJSONSchema, Scale: 1,
			Workloads: append([]workloadJSON(nil), ok.Workloads...)}
		tc.mut(&fresh)
		err := diffAgainstBaseline(path, fresh)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDiffScalingCollapseGate pins the self-referential gate on the
// intra-query parallelism curve: a flat scaling-4 on a multi-core machine
// fails even when the baseline (committed from a small machine) is flat
// too, and a flat curve below the CPU floor passes — one core cannot scale.
func TestDiffScalingCollapseGate(t *testing.T) {
	// Baseline as committed from a 1-CPU container: a physically flat curve.
	base := benchJSON{Schema: benchJSONSchema, Scale: 1, NumCPU: 1, Workloads: []workloadJSON{
		{Name: "topk/scaling-1", NsPerOp: 4_000_000},
		{Name: "topk/scaling-4", NsPerOp: 4_000_000},
	}}
	path := writeBaseline(t, base)
	fresh := func(cpu int, s1, s4 int64) benchJSON {
		return benchJSON{Schema: benchJSONSchema, Scale: 1, NumCPU: cpu, Workloads: []workloadJSON{
			{Name: "topk/scaling-1", NsPerOp: s1},
			{Name: "topk/scaling-4", NsPerOp: s4},
		}}
	}
	if err := diffAgainstBaseline(path, fresh(1, 4_000_000, 4_000_000)); err != nil {
		t.Fatalf("flat curve on a 1-CPU machine rejected: %v", err)
	}
	if err := diffAgainstBaseline(path, fresh(8, 4_000_000, 1_900_000)); err != nil {
		t.Fatalf("2.1x speedup on an 8-CPU machine rejected: %v", err)
	}
	err := diffAgainstBaseline(path, fresh(8, 4_000_000, 4_000_000))
	if err == nil {
		t.Fatal("flat curve on an 8-CPU machine accepted")
	}
	if !strings.Contains(err.Error(), "not scaling") {
		t.Fatalf("flat-curve error %q does not mention the scaling gate", err)
	}
	if err := diffAgainstBaseline(path, fresh(4, 4_000_000, 2_100_000)); err == nil {
		t.Fatal("1.9x speedup on a 4-CPU machine accepted")
	}
}
