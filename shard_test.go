package sdquery

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleTopK is the exhaustive reference answer over a mutable dataset:
// score every live row, order by score descending then ID ascending, keep k.
func oracleTopK(data [][]float64, dead []bool, q Query) []Result {
	var all []Result
	for id, p := range data {
		if dead != nil && dead[id] {
			continue
		}
		all = append(all, Result{ID: id, Score: q.Score(p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v\ngot  %v\nwant %v",
				label, i, got[i], want[i], got, want)
		}
	}
}

// tieProneData quantizes coordinates onto a small grid so duplicate
// SD-scores are common — the regime where tie-breaking determinism matters.
func tieProneData(n, dims int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, dims)
		for d := range row {
			row[d] = float64(rng.Intn(4)) / 4
		}
		data[i] = row
	}
	return data
}

func randomQuery(rng *rand.Rand, roles []Role, n int) Query {
	d := len(roles)
	q := Query{
		Point:   make([]float64, d),
		K:       1 + rng.Intn(n+3), // sometimes k > n
		Roles:   append([]Role(nil), roles...),
		Weights: make([]float64, d),
	}
	for i := 0; i < d; i++ {
		q.Point[i] = float64(rng.Intn(5)) / 4
		q.Weights[i] = float64(rng.Intn(3)) // 0 weights included
	}
	return q
}

// The TestShardedIndex* tests below cover pooled execution — segment
// fan-out, BatchTopK, concurrent builds — on an SDIndex built WithWorkers.
// They keep the names of the in-process sharded index those paths replaced.

func TestShardedIndexMatchesScanByteForByte(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	for _, segs := range []int{1, 2, 3, 7} {
		data := tieProneData(500, len(roles), int64(segs))
		idx, err := NewSDIndex(data, roles, WithWorkers(3), WithMaxSegmentRows((len(data)+segs-1)/segs))
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		if idx.Len() != len(data) {
			t.Fatalf("Len = %d, want %d", idx.Len(), len(data))
		}
		if got, _ := idx.Segments(); got != segs {
			t.Fatalf("Segments = %d, want %d", got, segs)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 50; i++ {
			q := randomQuery(rng, roles, len(data))
			got, err := idx.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "pooled vs oracle", got, oracleTopK(data, nil, q))
		}
	}
}

func TestShardedIndexInsertRemove(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Attractive}
	data := tieProneData(120, len(roles), 5)
	idx, err := NewSDIndex(data, roles, WithWorkers(4), WithMaxSegmentRows(40), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	mirror := append([][]float64(nil), data...)
	dead := make([]bool, len(data))
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 200; step++ {
		switch rng.Intn(3) {
		case 0: // insert
			p := []float64{float64(rng.Intn(4)) / 4, rng.Float64(), rng.Float64()}
			id, err := idx.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if id != len(mirror) {
				t.Fatalf("Insert returned id %d, want %d (global IDs must be dense)", id, len(mirror))
			}
			mirror = append(mirror, p)
			dead = append(dead, false)
		case 1: // remove
			id := rng.Intn(len(mirror) + 5) // sometimes out of range
			got := idx.Remove(id)
			want := id < len(mirror) && !dead[id]
			if got != want {
				t.Fatalf("Remove(%d) = %v, want %v", id, got, want)
			}
			if got {
				dead[id] = true
			}
		default: // query
			q := randomQuery(rng, roles, len(mirror))
			got, err := idx.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "after updates", got, oracleTopK(mirror, dead, q))
		}
	}
	live := 0
	for _, d := range dead {
		if !d {
			live++
		}
	}
	if idx.Len() != live {
		t.Fatalf("Len = %d, want %d live points", idx.Len(), live)
	}
}

func TestShardedIndexBatchMatchesTopK(t *testing.T) {
	roles := []Role{Repulsive, Attractive}
	data := tieProneData(300, len(roles), 8)
	idx, err := NewSDIndex(data, roles, WithWorkers(4), WithMaxSegmentRows(100))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(21))
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = randomQuery(rng, roles, len(data))
	}
	batch, err := idx.BatchTopK(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "batch vs single", batch[i], single)
	}
}

func TestShardedIndexBatchReportsLowestFailingQuery(t *testing.T) {
	roles := []Role{Repulsive, Attractive}
	data := tieProneData(50, len(roles), 9)
	idx, err := NewSDIndex(data, roles, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(3))
	queries := make([]Query, 10)
	for i := range queries {
		queries[i] = randomQuery(rng, roles, len(data))
	}
	queries[4].K = 0 // invalid
	queries[7].K = -1
	if _, err := idx.BatchTopK(queries); err == nil || !strings.Contains(err.Error(), "query 4") {
		t.Fatalf("BatchTopK error = %v, want failure attributed to query 4", err)
	}
}

// TestShardedIndexShardAndWorkerKnobs pins the deprecated sharding names:
// NewShardedIndex and NewShardedIndexWithIDs build a pooled SDIndex,
// WithShards changes nothing, and Shards reports 1.
func TestShardedIndexShardAndWorkerKnobs(t *testing.T) {
	roles := []Role{Repulsive, Attractive}
	data := tieProneData(10, len(roles), 1)
	ids := make([]int, len(data))
	for i := range ids {
		ids[i] = 3 * i
	}
	idx, err := NewShardedIndex(data, roles, WithShards(64), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	withIDs, err := NewShardedIndexWithIDs(data, ids, roles, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer withIDs.Close()
	if idx.Shards() != 1 || withIDs.Shards() != 1 {
		t.Fatalf("Shards = %d, %d, want 1", idx.Shards(), withIDs.Shards())
	}
	if idx.pool == nil || idx.pool.workers != 2 {
		t.Fatal("NewShardedIndex with WithWorkers(2) must own a 2-worker pool")
	}
	if withIDs.pool == nil {
		t.Fatal("NewShardedIndexWithIDs must place WithWorkers(0) first")
	}
	if got := idx.Roles(); len(got) != len(roles) || got[0] != roles[0] || got[1] != roles[1] {
		t.Fatalf("Roles = %v, want %v", got, roles)
	}
	if idx.Bytes() <= 0 {
		t.Fatal("Bytes must be positive for a non-empty index")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		q := randomQuery(rng, roles, len(data))
		want := oracleTopK(data, nil, q)
		got, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "NewShardedIndex", got, want)
		got, err = withIDs.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			want[j].ID *= 3
		}
		sameResults(t, "NewShardedIndexWithIDs", got, want)
	}
}

func TestShardedIndexUsableAfterClose(t *testing.T) {
	roles := []Role{Repulsive, Attractive}
	data := tieProneData(60, len(roles), 2)
	idx, err := NewSDIndex(data, roles, WithWorkers(3), WithMaxSegmentRows(20))
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	idx.Close() // idempotent
	rng := rand.New(rand.NewSource(12))
	q := randomQuery(rng, roles, len(data))
	got, err := idx.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after close", got, oracleTopK(data, nil, q))
	if _, err := idx.BatchTopK([]Query{q, q}); err != nil {
		t.Fatal(err)
	}
}
