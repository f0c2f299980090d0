// Persistence round-trip tests: a saved index must reload bit-exactly —
// same answers (ascending-ID tie-breaks included), same Bytes, same
// liveness — and a reloaded index must keep serving updates with the same
// global ID sequence. The double-save check is the strongest form: because
// segments round-trip verbatim and tree rebuilds are deterministic, saving
// the reloaded index must reproduce the file byte for byte.
package sdquery

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
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

// TestSaveLoadShardedRoundTrip round-trips a WithWorkers index with a
// multi-segment stack, loaded back WithWorkers so Load rebuilds the
// segments' trees through the pool.
func TestSaveLoadShardedRoundTrip(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive}
	data := dataset.Generate(dataset.Uniform, 500, len(roles), 51)
	idx, err := NewSDIndex(data, roles, WithWorkers(3), WithMaxSegmentRows(100), WithMemtableSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	churn(t, idx, len(roles), 250, 52)

	// Background compaction keeps publishing after the churn, so a Bytes
	// figure read around Save may describe a different snapshot than the
	// saved one. Bracket the read and the Save with Epoch: an unchanged
	// epoch proves nothing published in between, so wantBytes is exactly
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
	loaded, err := LoadSDIndex(bytes.NewReader(buf.Bytes()), WithWorkers(3), WithMaxSegmentRows(100))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
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
	// Inserts resume the ID space where the saved index left off.
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

// legacyShardedFile writes idx in the sharded file kind older releases
// wrote: the shard header (shard count, insert cursor, ID-space size), the
// routing table of one int32 per ID, then one engine section per shard.
// rows overrides the header's ID-space size (the table always covers idx's
// real one). Every shard section repeats idx's engine, which is only
// well-formed for shards == 1 — more shards must be refused before their
// sections are read.
func legacyShardedFile(t *testing.T, idx *SDIndex, shards, rows uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHeader(&buf, kindSharded); err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{uint32(shards), uint32(0), rows, make([]int32, idx.Total())} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < shards; i++ {
		if err := idx.eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLoadOldShardedFormat loads sharded files as older releases wrote
// them, through both Load and LoadSDIndex: a 1-shard file holds exactly one
// engine section and loads as an SDIndex answering like the saved index;
// more shards, or a damaged shard header, fail with a descriptive error.
func TestLoadOldShardedFormat(t *testing.T) {
	roles := []Role{Repulsive, Attractive, Repulsive}
	data := dataset.Generate(dataset.Uniform, 300, len(roles), 54)
	idx, err := NewSDIndex(data, roles, WithMemtableSize(16))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	churn(t, idx, len(roles), 100, 55)
	total := uint64(idx.Total())
	one := legacyShardedFile(t, idx, 1, total)
	for _, tc := range []struct {
		name string
		file []byte
		want string // error substring; "" = loads
	}{
		{"1-shard", one, ""},
		{"3-shard", legacyShardedFile(t, idx, 3, total), "3-shard index"},
		{"0-shard", legacyShardedFile(t, idx, 0, total), "implausible shard header"},
		{"huge-table", legacyShardedFile(t, idx, 1, 1<<40), "implausible shard header"},
		{"truncated-table", one[:6+16+8], "routing table"},
		{"truncated-engine", one[:len(one)-3], "load"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, load := range []struct {
				name string
				f    func() (Engine, error)
			}{
				{"Load", func() (Engine, error) { return Load(bytes.NewReader(tc.file)) }},
				{"LoadSDIndex", func() (Engine, error) { return LoadSDIndex(bytes.NewReader(tc.file)) }},
			} {
				eng, err := load.f()
				if tc.want != "" {
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: error %v, want one mentioning %q", load.name, err, tc.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", load.name, err)
				}
				for _, q := range persistQueries(len(roles), roles, 56) {
					want, err := idx.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, load.name, got, want)
				}
				eng.(*SDIndex).Close()
			}
		})
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
	// An unknown kind is a clear error, not a misparse.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[5] = 9
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown index kind 9") {
		t.Fatalf("unknown kind: %v", err)
	}
	// Truncation anywhere fails loudly.
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 3} {
		if _, err := LoadSDIndex(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated file (%d of %d bytes) accepted", cut, buf.Len())
		}
	}
}
