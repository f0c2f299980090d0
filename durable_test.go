package sdquery

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// durableRoles is the fixed 4-dim role set of the durability tests.
var durableRoles = []Role{Repulsive, Attractive, Repulsive, Attractive}

// durableMutate drives n random inserts/removes through idx and mirrors
// them onto the oracle dataset, returning the appended data and dead mask.
func durableMutate(t *testing.T, idx interface {
	Insert(p []float64) (int, error)
	Remove(id int) bool
}, data [][]float64, dead []bool, n int, seed int64) ([][]float64, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 && len(data) > 0 {
			victim := rng.Intn(len(data))
			got := idx.Remove(victim)
			if got == dead[victim] {
				t.Fatalf("remove %d: got %v with oracle dead=%v", victim, got, dead[victim])
			}
			dead[victim] = true
			continue
		}
		row := make([]float64, len(durableRoles))
		for d := range row {
			row[d] = float64(rng.Intn(5)) / 4
		}
		id, err := idx.Insert(row)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if id != len(data) {
			t.Fatalf("insert id %d, want %d", id, len(data))
		}
		data = append(data, row)
		dead = append(dead, false)
	}
	return data, dead
}

// durableCheck compares idx against the oracle dataset on a deterministic
// query battery.
func durableCheck(t *testing.T, label string, idx Engine, data [][]float64, dead []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		q := randomQuery(rng, durableRoles, len(data))
		got, err := idx.TopK(q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", label, i, err)
		}
		sameResults(t, label, got, oracleTopK(data, dead, q))
	}
}

func TestDurableSDIndexRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(60, len(durableRoles), 1)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 80, 2)
	idx.Close()

	re, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	durableCheck(t, "reopened sdindex", re, data, dead)
	if st := re.WALStats(); !st.Enabled {
		t.Fatal("reopened index lost its WAL")
	}
	// The reopened index keeps logging: mutate more, reopen again.
	data, dead = durableMutate(t, re, data, dead, 20, 3)
	re.Close()
	re2, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	durableCheck(t, "twice-reopened sdindex", re2, data, dead)
}

// TestDurableShardedIndexRoundTrip runs the durable round trip on a
// WithWorkers index with a multi-segment stack, so recovery rebuilds
// several segments' trees through the pool.
func TestDurableShardedIndexRoundTrip(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(90, len(durableRoles), 4)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithWorkers(3), WithMaxSegmentRows(32), WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 100, 5)
	idx.Close()

	re, err := OpenSDIndex("idx", WithWALFS(fs), WithWorkers(3), WithMaxSegmentRows(32))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	durableCheck(t, "reopened with workers", re, data, dead)
	data, dead = durableMutate(t, re, data, dead, 30, 6)
	durableCheck(t, "reopened with workers after writes", re, data, dead)
}

func TestDurableShardedHardDrop(t *testing.T) {
	// No Close, no Sync: the index is simply abandoned mid-flight, like a
	// killed process. SyncAlways acknowledged every mutation after its group
	// commit, so recovery owes all of them.
	fs := faultfs.NewMem()
	data := tieProneData(40, len(durableRoles), 7)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithWorkers(2), WithMemtableSize(8))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	data, dead = durableMutate(t, idx, data, dead, 60, 8)

	re, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	durableCheck(t, "hard-drop", re, data, dead)
}

// rewriteManifest replaces dir's MANIFEST with body — how the tests stand
// up directories in the layouts older releases wrote.
func rewriteManifest(t *testing.T, fs faultfs.FS, dir, body string) {
	t.Helper()
	f, err := fs.OpenFile(dir+"/"+manifestName, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOpenDispatchesOnKind opens every manifest kind through Open and
// OpenSDIndex. A "sharded" directory of one shard, as older releases wrote
// it, has the same shard-000/ layout as an sdindex one and recovers like
// it; one of more shards, or a malformed manifest, fails with an error
// naming the problem and never panics.
func TestDurableOpenDispatchesOnKind(t *testing.T) {
	for _, tc := range []struct {
		name     string
		manifest string // "" keeps the one the index wrote
		want     string // error substring; "" = opens
	}{
		{"sdindex", "", ""},
		{"sharded-1", `{"format":"sdquery-wal/v1","kind":"sharded","shards":1}`, ""},
		{"sharded-3", `{"format":"sdquery-wal/v1","kind":"sharded","shards":3}`, "3-shard index"},
		{"sharded-0", `{"format":"sdquery-wal/v1","kind":"sharded","shards":0}`, "implausible shard count 0"},
		{"unknown-kind", `{"format":"sdquery-wal/v1","kind":"tiled","shards":1}`, "unknown index kind"},
		{"bad-format", `{"format":"sdquery-wal/v9","kind":"sdindex","shards":1}`, "unsupported manifest format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.NewMem()
			data := tieProneData(20, len(durableRoles), 9)
			idx, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			dead := make([]bool, len(data))
			data, dead = durableMutate(t, idx, data, dead, 10, 13)
			idx.Close()
			if tc.manifest != "" {
				rewriteManifest(t, fs, "idx", tc.manifest)
			}
			for _, open := range []struct {
				name string
				f    func() (Engine, error)
			}{
				{"Open", func() (Engine, error) { return Open("idx", WithWALFS(fs)) }},
				{"OpenSDIndex", func() (Engine, error) { return OpenSDIndex("idx", WithWALFS(fs)) }},
			} {
				eng, err := open.f()
				if tc.want != "" {
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: error %v, want one mentioning %q", open.name, err, tc.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", open.name, err)
				}
				re, ok := eng.(*SDIndex)
				if !ok {
					t.Fatalf("%s = %T, want *SDIndex", open.name, eng)
				}
				durableCheck(t, open.name, re, data, dead)
				re.Close()
			}
		})
	}
}

func TestDurableCreateRefusesExistingDir(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(10, len(durableRoles), 10)
	if _, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs)); err == nil {
		t.Fatal("re-creating over a durable dir must fail")
	}
	if _, err := NewSDIndex(data, durableRoles, WithWAL("idx"), WithWALFS(fs), WithWorkers(2)); err == nil {
		t.Fatal("re-creating over a durable dir must fail")
	}
}

func TestDurableRemovedReclaimedIDsRouteNowhere(t *testing.T) {
	// Remove rows, force compaction to physically reclaim them, checkpoint,
	// reopen: the reclaimed IDs are absent from the index and must report
	// "not live" without panicking.
	fs := faultfs.NewMem()
	data := tieProneData(30, len(durableRoles), 11)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithWorkers(2), WithMemtableSize(8))
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(data))
	for id := 0; id < 10; id++ {
		if !idx.Remove(id) {
			t.Fatalf("remove %d reported not live", id)
		}
		dead[id] = true
	}
	idx.Compact()
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	re, err := OpenSDIndex("idx", WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for id := 0; id < 10; id++ {
		if re.Remove(id) {
			t.Fatalf("reclaimed id %d reported live after reopen", id)
		}
	}
	durableCheck(t, "post-reclaim", re, data, dead)
	// Fresh inserts keep extending the global ID space past the reclaimed
	// prefix.
	id, err := re.Insert(make([]float64, len(durableRoles)))
	if err != nil {
		t.Fatal(err)
	}
	if id != len(data) {
		t.Fatalf("post-reopen insert id %d, want %d", id, len(data))
	}
}

func TestDurableShardedSyncErrorDegradesToReadOnly(t *testing.T) {
	fs := faultfs.NewMem()
	data := tieProneData(20, len(durableRoles), 12)
	idx, err := NewSDIndex(data, durableRoles,
		WithWAL("idx"), WithWALFS(fs), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	fs.SetSyncErr(errors.New("disk gone"))
	if _, err := idx.Insert(make([]float64, len(durableRoles))); !errors.Is(err, ErrWAL) {
		t.Fatalf("insert under fsync failure: %v, want ErrWAL", err)
	}
	if st := idx.WALStats(); st.Err == nil {
		t.Fatalf("index not degraded: %+v", st)
	}
	// Reads keep working.
	durableCheckReadsOnly(t, idx, data)
}

func durableCheckReadsOnly(t *testing.T, idx Engine, data [][]float64) {
	t.Helper()
	q := Query{Point: make([]float64, len(durableRoles)), K: 5,
		Roles: durableRoles, Weights: []float64{1, 1, 1, 1}}
	if _, err := idx.TopK(q); err != nil {
		t.Fatalf("read after degradation: %v", err)
	}
}
