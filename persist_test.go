// Persistence round-trip tests: a saved index must reload bit-exactly —
// same answers (ascending-ID tie-breaks included), same Bytes, same
// liveness — and a reloaded index must keep serving updates with the same
// global ID sequence. The double-save check is the strongest form: because
// segments round-trip verbatim and tree rebuilds are deterministic, saving
// the reloaded index must reproduce the file byte for byte.
package sdquery

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// churn builds a messy storage stack: interleaved inserts and removes over
// a small memtable threshold, leaving sealed segments, tombstones, and a
// partially filled memtable behind.
func churn(t *testing.T, idx interface {
	Insert([]float64) (int, error)
	Remove(int) bool
}, dims, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if rng.Intn(3) == 0 {
			idx.Remove(rng.Intn(200))
		} else {
			p := make([]float64, dims)
			for d := range p {
				p[d] = float64(rng.Intn(8)) / 8
			}
			if _, err := idx.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func persistQueries(dims int, roles []Role, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 24)
	for i := range out {
		q := Query{
			Point:   make([]float64, dims),
			K:       1 + rng.Intn(20),
			Roles:   append([]Role(nil), roles...),
			Weights: make([]float64, dims),
		}
		for d := 0; d < dims; d++ {
			q.Point[d] = rng.Float64()
			q.Weights[d] = float64(rng.Intn(5)) / 4
		}
		out[i] = q
	}
	return out
}

func TestSaveLoadSDIndexRoundTrip(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive, Attractive}
	data := dataset.Generate(dataset.Uniform, 600, len(roles), 41)
	idx, err := NewSDIndex(data, roles, WithMemtableSize(64), WithCompaction(false))
	if err != nil {
		t.Fatal(err)
	}
	churn(t, idx, len(roles), 300, 42)
	idx.Compact() // seal part of the history...
	churn(t, idx, len(roles), 90, 43)
	// ...and leave live tombstones plus memtable rows on top.

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadSDIndex(bytes.NewReader(saved), WithCompaction(false))
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Len() != idx.Len() {
		t.Fatalf("Len: loaded %d, saved %d", loaded.Len(), idx.Len())
	}
	if loaded.Bytes() != idx.Bytes() {
		t.Fatalf("Bytes: loaded %d, saved %d", loaded.Bytes(), idx.Bytes())
	}
	if ls, lm := loaded.Segments(); true {
		if os, om := idx.Segments(); ls != os || lm != om {
			t.Fatalf("stack shape: loaded (%d segs, %d mem), saved (%d, %d)", ls, lm, os, om)
		}
	}
	for qi, q := range persistQueries(len(roles), roles, 44) {
		want, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "loaded vs saved", got, want)
		_ = qi
	}

	// Deterministic rebuild ⇒ saving the loaded index reproduces the file.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatalf("double save differs: %d vs %d bytes", len(saved), buf2.Len())
	}

	// The loaded index keeps serving updates under the continued global ID
	// sequence.
	id, err := loaded.Insert([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := idx.Insert([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("post-load Insert returned ID %d, original returns %d", id, wantID)
	}
}

func TestSaveLoadShardedRoundTrip(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive}
	data := dataset.Generate(dataset.Uniform, 500, len(roles), 51)
	idx, err := NewShardedIndex(data, roles, WithShards(3), WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	churn(t, idx, len(roles), 250, 52)

	// Background compaction keeps publishing after the churn, so a Bytes
	// figure read around Save may describe a different snapshot than the
	// saved one. Bracket the read and the Save with Epoch: an unchanged
	// epoch proves no shard published in between, so wantBytes is exactly
	// the saved snapshot's.
	var buf bytes.Buffer
	var wantBytes int
	for attempt := 0; ; attempt++ {
		if attempt == 1000 {
			t.Fatal("index never held still for one Save")
		}
		epoch := idx.Epoch()
		wantBytes = idx.Bytes()
		buf.Reset()
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if idx.Epoch() == epoch {
			break
		}
	}
	eng, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := eng.(*ShardedIndex)
	if !ok {
		t.Fatalf("Load returned %T, want *ShardedIndex", eng)
	}
	defer loaded.Close()
	if loaded.Shards() != idx.Shards() {
		t.Fatalf("shards: loaded %d, saved %d", loaded.Shards(), idx.Shards())
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("Len: loaded %d, saved %d", loaded.Len(), idx.Len())
	}
	if loaded.Bytes() != wantBytes {
		t.Fatalf("Bytes: loaded %d, saved %d", loaded.Bytes(), wantBytes)
	}
	for _, q := range persistQueries(len(roles), roles, 53) {
		want, err := idx.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "loaded vs saved", got, want)
	}
	// Round-robin insert routing resumes where the saved index left off.
	id, err := loaded.Insert([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := idx.Insert([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("post-load Insert returned ID %d, original returns %d", id, wantID)
	}
	if !loaded.Remove(id) {
		t.Fatal("post-load Remove of the fresh row failed")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	roles := []Role{Repulsive, Attractive}
	idx, err := NewSDIndex(dataset.Generate(dataset.Uniform, 50, 2, 61), roles)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Kind mismatch is a clear error, not a misparse.
	if _, err := LoadShardedIndex(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadShardedIndex accepted a single-engine file")
	}
	// Truncation anywhere fails loudly.
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 3} {
		if _, err := LoadSDIndex(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated file (%d of %d bytes) accepted", cut, buf.Len())
		}
	}
}
