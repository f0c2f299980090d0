package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// stallingNode answers /v1/topk by committing to a 200 (headers flushed) and
// then stalling until the request is cancelled: the loser of every hedge
// race, yet a perfectly healthy node.
func stallingNode() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
}

// signalTransport signals headers when a response from host arrives and
// closed when its body is closed. fetchOn closes the body on return, after
// its breaker bookkeeping, so closed orders the test after that bookkeeping.
// Both channels have one slot and the test drains them step by step, so the
// sends never need to drop a signal the test waits for.
type signalTransport struct {
	base            http.RoundTripper
	host            string
	headers, closed chan struct{}
}

func (c signalTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil && r.URL.Host == c.host {
		resp.Body = &signalBody{ReadCloser: resp.Body, closed: c.closed}
		signal(c.headers)
	}
	return resp, err
}

type signalBody struct {
	io.ReadCloser
	closed chan struct{}
}

func (b *signalBody) Close() error {
	err := b.ReadCloser.Close()
	signal(b.closed)
	return err
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// TestCancelledHedgeKeepsBreakerClosed is the regression test for hedging
// tripping the breaker: a slow-but-healthy leader that loses every hedge
// race to its replica gets its in-flight copy cancelled each time, and that
// cancellation is the router's own doing, not a node failure. Repeated
// losses must leave the leader's breaker closed (before the fix, FailAfter
// losses in a row ejected it and its partition's writes answered 503). An
// attempt that outlives TryTimeout must still count against the node.
func TestCancelledHedgeKeepsBreakerClosed(t *testing.T) {
	// The replica answers only once the leader's response headers have
	// reached the router, so every race is lost by a leader copy that is
	// already reading its body: the cancellation always lands on the same
	// path, whatever the scheduling.
	headers, closed := make(chan struct{}, 1), make(chan struct{}, 1)
	slow := stallingNode()
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-headers
		w.Write([]byte(`{"results":[]}`))
	}))
	defer fast.Close()
	su, err := url.Parse(slow.URL)
	if err != nil {
		t.Fatal(err)
	}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	cfg := Config{HedgeDelay: time.Millisecond, TryTimeout: 5 * time.Second}
	rt := &Router{
		cfg:    cfg.withDefaults(),
		client: &http.Client{Transport: signalTransport{base: transport, host: su.Host, headers: headers, closed: closed}},
	}
	leader, replica := &node{url: slow.URL}, &node{url: fast.URL}
	topo := &topology{leader: leader, replicas: []*node{replica}}

	for i := 0; i < 3*rt.cfg.FailAfter; i++ {
		if _, err := rt.hedgedFetch(context.Background(), topo, leader, replica, http.MethodPost, "/v1/topk", []byte(`{}`), nil); err != nil {
			t.Fatalf("hedged read %d: %v", i, err)
		}
		select {
		case <-closed: // the cancelled leader copy has finished its bookkeeping
		case <-time.After(5 * time.Second):
			t.Fatalf("hedged read %d: the losing leader copy never finished", i)
		}
	}
	if got := rt.met.hedges.Load(); got != uint64(3*rt.cfg.FailAfter) {
		t.Fatalf("%d hedges fired, want %d: the leader did not lose every race", got, 3*rt.cfg.FailAfter)
	}
	if !leader.healthy() || leader.fails.Load() != 0 {
		t.Fatalf("leader breaker after %d cancelled hedges: healthy=%v fails=%d, want closed with 0 fails",
			3*rt.cfg.FailAfter, leader.healthy(), leader.fails.Load())
	}

	// A try that exceeds TryTimeout is the node's fault, not the caller's.
	// fetchOn runs on this goroutine here, so its bookkeeping is done when
	// it returns.
	rt.cfg.TryTimeout = 20 * time.Millisecond
	if _, err := rt.fetchOn(context.Background(), topo, leader, http.MethodPost, "/v1/topk", []byte(`{}`), nil); err == nil {
		t.Fatal("fetch from a stalling node succeeded past TryTimeout")
	}
	if got := leader.fails.Load(); got != 1 {
		t.Fatalf("expired TryTimeout recorded %d failures, want 1", got)
	}
}
