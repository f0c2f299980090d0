package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	sdquery "repro"
	"repro/internal/dataset"
)

// statzOf fetches and decodes GET /statz.
func statzOf(t *testing.T, client *http.Client, base string) Statz {
	t.Helper()
	resp, err := client.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheDifferentialUnderChurn is the cache's acceptance test: with the
// result cache on, every /v1/topk response — first touch, warm hit, or
// post-mutation re-ask — must be byte-identical to encoding a direct TopK
// call against the live index at that moment. Inserts and removes run
// through the HTTP API between rounds, and a small memtable keeps the
// background compactor churning epochs underneath, so any stale entry that
// survived its epoch would surface as a byte mismatch here.
func TestCacheDifferentialUnderChurn(t *testing.T) {
	idx := testIndex(t, 2000, 11, sdquery.WithMemtableSize(64))
	srv := New(idx, WithResultCache(true), WithCacheCapacity(64))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	queries := testQueries(6, 5)
	rng := rand.New(rand.NewSource(9))
	nextID := idx.Len()
	for round := 0; round < 15; round++ {
		// Ask each query several times: the repeats are cache hits once the
		// sketch warms, and every answer must match a fresh direct call.
		for qi, q := range queries {
			direct, err := idx.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenBody(t, direct)
			for rep := 0; rep < 3; rep++ {
				status, got := post(t, client, ts.URL+"/v1/topk", queryBody(t, q))
				if status != http.StatusOK {
					t.Fatalf("round %d query %d rep %d: status %d: %s", round, qi, rep, status, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d query %d rep %d: response diverged from direct TopK\ngot:  %s\nwant: %s",
						round, qi, rep, got, want)
				}
			}
		}
		// Mutate through the API: a handful of inserts (eventually sealing
		// memtables and triggering compaction) and one remove.
		for i := 0; i < 40; i++ {
			p := make([]float64, len(testRoles()))
			for d := range p {
				p[d] = rng.Float64()
			}
			body, _ := json.Marshal(map[string]any{"point": p})
			if status, out := post(t, client, ts.URL+"/v1/insert", body); status != http.StatusOK {
				t.Fatalf("insert: status %d: %s", status, out)
			}
			nextID++
		}
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", ts.URL, rng.Intn(nextID)), nil)
		if resp, err := client.Do(req); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
		}
	}
	st := statzOf(t, client, ts.URL)
	if !st.CacheEnabled {
		t.Fatal("statz reports the cache disabled")
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits over 15 rounds of repeated queries")
	}
	if st.CacheHitRate <= 0 {
		t.Fatalf("cache_hit_rate %v, want > 0", st.CacheHitRate)
	}
}

// TestCacheInvalidationOnSwap: entries cached against one index must never
// be served after an in-process Swap publishes another — the new box
// generation makes every old entry stale at once.
func TestCacheInvalidationOnSwap(t *testing.T) {
	idxA := testIndex(t, 600, 1)
	idxB := testIndex(t, 600, 2)
	srv := New(idxA, WithResultCache(true))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	q := testQueries(1, 3)[0]
	directA, err := idxA.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	wantA := goldenBody(t, directA)
	for rep := 0; rep < 5; rep++ {
		if _, got := post(t, client, ts.URL+"/v1/topk", queryBody(t, q)); !bytes.Equal(got, wantA) {
			t.Fatalf("pre-swap rep %d: response diverged from idxA", rep)
		}
	}
	if st := statzOf(t, client, ts.URL); st.CacheHits == 0 {
		t.Fatal("query never hit the cache before the swap")
	}

	srv.Swap(idxB)
	directB, err := idxB.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	wantB := goldenBody(t, directB)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("test indexes answer identically; swap invalidation not exercised")
	}
	for rep := 0; rep < 3; rep++ {
		if _, got := post(t, client, ts.URL+"/v1/topk", queryBody(t, q)); !bytes.Equal(got, wantB) {
			t.Fatalf("post-swap rep %d: served idxA's cached answer after swapping to idxB", rep)
		}
	}
}

// TestCoalescedSwapDims is the regression test for the decode/execute race
// (first found when queries waited in a coalescing window): a query decoded
// against a 4-dim index, parked in the engine while a swap publishes a
// 3-dim index, must still execute against the 4-dim index it was validated
// for (and answer its bytes) — not be handed to an index where its
// dimensionality is wrong.
func TestCoalescedSwapDims(t *testing.T) {
	idxA := testIndex(t, 400, 4)
	roles3 := []sdquery.Role{sdquery.Repulsive, sdquery.Attractive, sdquery.Repulsive}
	idxB, err := sdquery.NewSDIndex(dataset.Generate(dataset.Uniform, 400, len(roles3), 8), roles3, sdquery.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idxB.Close)

	// The gate parks the first request inside idxA's engine call while the
	// swap lands.
	slowA := &slowIndex{Index: idxA, gate: make(chan struct{})}
	srv := New(slowA)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	q := testQueries(1, 6)[0]
	directA, err := idxA.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	wantA := goldenBody(t, directA)

	type reply struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		status, body, err := postE(client, ts.URL+"/v1/topk", queryBody(t, q))
		done <- reply{status, body, err}
	}()
	// Let the request decode and park, then swap under it.
	time.Sleep(120 * time.Millisecond)
	srv.Swap(idxB)
	close(slowA.gate)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("parked 4-dim query answered %d after 3-dim swap: %s", r.status, r.body)
	}
	if !bytes.Equal(r.body, wantA) {
		t.Fatalf("parked query's answer diverged from its decode-time index\ngot:  %s\nwant: %s", r.body, wantA)
	}

	// The swapped-in index serves 3-dim queries; 4-dim queries are now 400s.
	q3 := sdquery.Query{Point: []float64{0.2, 0.4, 0.6}, K: 3, Roles: roles3, Weights: []float64{1, 1, 1}}
	directB, err := idxB.TopK(q3)
	if err != nil {
		t.Fatal(err)
	}
	status, got := post(t, client, ts.URL+"/v1/topk", queryBody(t, q3))
	if status != http.StatusOK || !bytes.Equal(got, goldenBody(t, directB)) {
		t.Fatalf("post-swap 3-dim query: status %d, body %s", status, got)
	}
	if status, _ := post(t, client, ts.URL+"/v1/topk", queryBody(t, q)); status != http.StatusBadRequest {
		t.Fatalf("4-dim query against 3-dim index answered %d, want 400", status)
	}
}

// TestStatusFor pins the error→status table, in particular that a client
// cancellation is 499 (not a server error) and that a request carrying both
// cancellation and a passed deadline blames the deadline.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable},
		{"canceled", context.Canceled, statusClientClosedRequest},
		{"wrapped canceled", fmt.Errorf("shard 3: %w", context.Canceled), statusClientClosedRequest},
		{"wrapped deadline", fmt.Errorf("shard 1: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
		{"both deadline and canceled", errors.Join(context.Canceled, context.DeadlineExceeded), http.StatusServiceUnavailable},
		{"validation", errors.New("k must be ≥ 1"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("%s: statusFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestClientDisconnectCounted: an e2e client hang-up during engine work must
// finish as a 499 — counted in the disconnect column, never in errors.
func TestClientDisconnectCounted(t *testing.T) {
	idx := testIndex(t, 400, 12)
	slow := &slowIndex{Index: idx, gate: make(chan struct{})}
	srv := New(slow)
	defer srv.Close()
	defer close(slow.gate)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/topk",
		bytes.NewReader(queryBody(t, testQueries(1, 13)[0])))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	if _, err := ts.Client().Do(req); err == nil {
		t.Fatal("cancelled request returned without error")
	}
	// The handler finishes asynchronously after the client is gone; wait for
	// the metrics to land.
	deadline := time.After(2 * time.Second)
	for {
		st := srv.Statz().Endpoints["topk"]
		if st.Disconnects >= 1 {
			if st.Errors != 0 {
				t.Fatalf("client disconnect also counted as %d server errors", st.Errors)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("disconnect never counted: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
