package serve

import (
	"bytes"
	"math"
	"testing"

	sdquery "repro"
)

func cacheQuery() sdquery.Query {
	return sdquery.Query{
		Point:   []float64{0.25, 0.5, 0.75, 1.0},
		K:       5,
		Roles:   testRoles(),
		Weights: []float64{1, 0.5, 0.25, 1},
	}
}

// TestCacheKeyCanonicalization pins the key-encoding equivalences: floats
// that compare equal must share a cache entry, and semantically identical
// defaulted weights must too, while every semantically distinct query gets
// a distinct key.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := cacheQuery()
	key := func(q sdquery.Query) []byte { return appendQueryKey(nil, q) }

	// -0.0 and +0.0 compare equal and score identically: one entry.
	negZero := cacheQuery()
	negZero.Point[0] = math.Copysign(0, -1)
	posZero := cacheQuery()
	posZero.Point[0] = 0
	if !bytes.Equal(key(negZero), key(posZero)) {
		t.Error("-0.0 and +0.0 points produced distinct cache keys")
	}
	negZeroW := cacheQuery()
	negZeroW.Weights[1] = math.Copysign(0, -1)
	posZeroW := cacheQuery()
	posZeroW.Weights[1] = 0
	if !bytes.Equal(key(negZeroW), key(posZeroW)) {
		t.Error("-0.0 and +0.0 weights produced distinct cache keys")
	}

	// Nil weights mean all-ones: same entry as explicit ones.
	nilW := cacheQuery()
	nilW.Weights = nil
	onesW := cacheQuery()
	onesW.Weights = []float64{1, 1, 1, 1}
	if !bytes.Equal(key(nilW), key(onesW)) {
		t.Error("nil weights and explicit all-ones weights produced distinct keys")
	}

	// NaN must not panic and must canonicalize to one pattern regardless of
	// payload bits (defense in depth; the decoder rejects NaN upstream).
	nanA := cacheQuery()
	nanA.Point[2] = math.NaN()
	nanB := cacheQuery()
	nanB.Point[2] = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // different NaN payload
	if !bytes.Equal(key(nanA), key(nanB)) {
		t.Error("two NaN bit patterns produced distinct cache keys")
	}

	// Distinct queries must produce distinct keys.
	variants := []func(*sdquery.Query){
		func(q *sdquery.Query) { q.K = 6 },
		func(q *sdquery.Query) { q.Point[3] = 0.9 },
		func(q *sdquery.Query) { q.Weights[0] = 0.9 },
		func(q *sdquery.Query) {
			q.Roles = append([]sdquery.Role(nil), q.Roles...)
			q.Roles[0] = sdquery.Attractive
		},
	}
	for i, mutate := range variants {
		q := cacheQuery()
		mutate(&q)
		if bytes.Equal(key(base), key(q)) {
			t.Errorf("variant %d produced the same key as the base query", i)
		}
	}
}

// TestCacheVersioning pins the implicit-invalidation contract: an entry is
// served only at the exact (gen, epoch) it was stored under; any other pair
// is a miss that also drops the stale entry.
func TestCacheVersioning(t *testing.T) {
	c := newResultCache(8)
	key := appendQueryKey(nil, cacheQuery())
	body := []byte(`{"results":[]}` + "\n")

	// Warm the sketch so admission passes (heap has room: first touch wins).
	c.get(key, 1, 1)
	if !c.put(key, 1, 1, body) {
		t.Fatal("put rejected with an empty heap")
	}
	if got, ok := c.get(key, 1, 1); !ok || !bytes.Equal(got, body) {
		t.Fatal("exact-version lookup missed")
	}
	if _, ok := c.get(key, 1, 2); ok {
		t.Fatal("stale epoch served")
	}
	if _, ok := c.get(key, 1, 1); ok {
		t.Fatal("stale entry survived the mismatched lookup")
	}

	c.put(key, 2, 7, body)
	if _, ok := c.get(key, 3, 7); ok {
		t.Fatal("entry from an older generation served after a swap")
	}
}

// TestCacheAdmission: with a full heap of established hot keys, a one-off
// key's computed answer is refused, while a key hammered hot is admitted.
func TestCacheAdmission(t *testing.T) {
	c := newResultCache(2)
	body := []byte("x\n")
	hot1 := []byte("hot-1")
	hot2 := []byte("hot-2")
	for i := 0; i < 100; i++ {
		c.get(hot1, 1, 1)
		c.get(hot2, 1, 1)
	}
	cold := []byte("cold")
	c.get(cold, 1, 1) // one touch: heap is full of hotter keys
	if c.put(cold, 1, 1, body) {
		t.Fatal("one-off key admitted over established heavy hitters")
	}
	if !c.put(hot1, 1, 1, body) {
		t.Fatal("established hot key refused admission")
	}
	// Hammering the cold key must eventually earn admission (and evict one
	// hot entry via the sketch's expulsion callback).
	for i := 0; i < 500; i++ {
		c.get(cold, 1, 1)
	}
	if !c.put(cold, 1, 1, body) {
		t.Fatal("heavily-accessed key still refused admission")
	}
	if n := c.len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestCacheZeroAllocHit gates the fast path: once a key is resident, the
// full hit sequence — pooled key buffer, canonical encode, hash, lookup,
// version check — performs zero heap allocations. This is the property that
// lets a hot query skip the engine without becoming a GC tax.
func TestCacheZeroAllocHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	c := newResultCache(8)
	q := cacheQuery()
	kb := c.getBuf()
	key := appendQueryKey((*kb)[:0], q)
	c.get(key, 1, 1)
	if !c.put(key, 1, 1, []byte("body\n")) {
		t.Fatal("seed put rejected")
	}
	*kb = key
	c.putBuf(kb)

	allocs := testing.AllocsPerRun(200, func() {
		kb := c.getBuf()
		key := appendQueryKey((*kb)[:0], q)
		if _, ok := c.get(key, 1, 1); !ok {
			t.Fatal("resident key missed")
		}
		*kb = key
		c.putBuf(kb)
	})
	if allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f times per lookup, want 0", allocs)
	}
}
