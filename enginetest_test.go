// Cross-engine differential tests: every public engine, and the sharded
// execution layer at several shard counts, runs the internal/enginetest
// oracle workloads. This is the module's §6 validation strategy as a
// first-class harness — any engine change that perturbs an answer fails
// here with the workload and rank that diverged.
package sdquery_test

import (
	"testing"

	sdquery "repro"
	"repro/internal/enginetest"
)

func TestDifferentialScan(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name:          "scan",
		Deterministic: true,
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewScan(data)
		},
	})
}

func TestDifferentialSDIndex(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name:          "sdindex",
		Deterministic: true,
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewSDIndex(data, roles)
		},
	})
}

func TestDifferentialSDIndexPairings(t *testing.T) {
	for _, p := range []sdquery.PairingStrategy{
		sdquery.PairInOrder, sdquery.PairByCorrelation, sdquery.PairByVariance, sdquery.PairNone,
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			enginetest.Run(t, enginetest.Factory{
				Name:          "sdindex-" + p.String(),
				Deterministic: true,
				New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
					return sdquery.NewSDIndex(data, roles, sdquery.WithPairing(p))
				},
			})
		})
	}
}

// TestDifferentialSDIndexScheduling runs the full oracle workloads against
// the scheduling/plan ablation knobs: the round-robin rotation and the
// uncached planner must answer byte-identically to the oracle, exactly like
// the bound-driven cached default (covered by TestDifferentialSDIndex).
func TestDifferentialSDIndexScheduling(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-roundrobin",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, sdquery.WithScheduler(sdquery.SchedRoundRobin))
			},
		})
	})
	t.Run("no-plan-cache", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-nocache",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, sdquery.WithPlanCache(false))
			},
		})
	})
}

// TestDifferentialSDIndexStorage runs the oracle workloads against the
// storage-layer knobs: a tiny memtable forces the update phase through many
// background seals and folds (multi-segment planning, tombstone masking,
// snapshot isolation across compaction), while disabled compaction forces
// every inserted row through the memtable scan path. Answers must stay
// byte-identical to the oracle in both regimes.
func TestDifferentialSDIndexStorage(t *testing.T) {
	t.Run("tiny-memtable", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-tiny-memtable",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, sdquery.WithMemtableSize(4))
			},
		})
	})
	t.Run("no-compaction", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-no-compaction",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, sdquery.WithCompaction(false))
			},
		})
	})
	t.Run("tiny-memtable-roundrobin", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-tiny-memtable-roundrobin",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles,
					sdquery.WithMemtableSize(4), sdquery.WithScheduler(sdquery.SchedRoundRobin))
			},
		})
	})
}

// TestDifferentialSDIndexColumns runs the oracle workloads over the narrow
// float32 scoring columns: the approximate sweep plus exact rescore must
// answer byte-identically to the float64 default, including across the
// update phase's seals and folds.
func TestDifferentialSDIndexColumns(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-float32",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles, sdquery.WithColumnWidth(32))
			},
		})
	})
	t.Run("float32-tiny-memtable", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-float32-tiny-memtable",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles,
					sdquery.WithColumnWidth(32), sdquery.WithMemtableSize(4))
			},
		})
	})
}

// TestDifferentialSDIndexParallel runs the oracle workloads with intra-query
// segment parallelism on: a segment row cap forces multi-segment stacks and
// WithWorkers fans each query's segments out to the pool. Answers must stay
// byte-identical to the oracle under both schedulers however the segment
// tasks interleave.
func TestDifferentialSDIndexParallel(t *testing.T) {
	t.Run("bound-driven", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-parallel",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles,
					sdquery.WithWorkers(3), sdquery.WithMaxSegmentRows(24))
			},
		})
	})
	t.Run("round-robin-float32", func(t *testing.T) {
		enginetest.Run(t, enginetest.Factory{
			Name:          "sdindex-parallel-roundrobin-float32",
			Deterministic: true,
			New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
				return sdquery.NewSDIndex(data, roles,
					sdquery.WithWorkers(2), sdquery.WithMaxSegmentRows(24),
					sdquery.WithScheduler(sdquery.SchedRoundRobin),
					sdquery.WithColumnWidth(32))
			},
		})
	})
}

func TestDifferentialTA(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name:          "ta",
		Deterministic: true,
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewTA(data)
		},
	})
}

func TestDifferentialBRS(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "brs", // best-first heap order resolves ties arbitrarily
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewBRS(data, 0)
		},
	})
}

func TestDifferentialPE(t *testing.T) {
	enginetest.Run(t, enginetest.Factory{
		Name: "pe", // NRA lower-bound ties resolve arbitrarily at the k-th rank
		New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
			return sdquery.NewPE(data)
		},
	})
}

// TestDifferentialShardedIndex runs the oracle workloads on pooled indexes
// of one, two, and five workers, with segments capped at 32 rows and a
// small memtable, so queries fan out over several segments and the update
// phase's compactions build trees on the pool. (The name and subtest names
// predate the single-engine index, when they counted shards.)
func TestDifferentialShardedIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		workers := workers
		t.Run(map[int]string{1: "one", 2: "two", 5: "five"}[workers], func(t *testing.T) {
			enginetest.Run(t, enginetest.Factory{
				Name:          "pooled",
				Deterministic: true,
				New: func(data [][]float64, roles []sdquery.Role) (sdquery.Engine, error) {
					return sdquery.NewSDIndex(data, roles, sdquery.WithWorkers(workers),
						sdquery.WithMaxSegmentRows(32), sdquery.WithMemtableSize(8))
				},
			})
		})
	}
}
