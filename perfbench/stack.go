package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	sdquery "repro"
	"repro/serve"
	"repro/serve/router"
)

// The system under test runs in this process with the defaults the sdserver
// and sdrouter commands ship: GOMAXPROCS shards and workers, a 500µs
// coalescing window, 64-query batches, a 1024-deep admission queue, the
// 1024-entry result cache, sync=always WALs, a 200ms follower pull interval
// and the router's zero-value Config.

func nodeOptions() []serve.Option {
	return []serve.Option{
		serve.WithCoalesceWindow(500 * time.Microsecond),
		serve.WithMaxBatch(64),
		serve.WithQueueDepth(1024),
		serve.WithResultCache(true),
		serve.WithCacheCapacity(1024),
		serve.WithLoadOptions(sdquery.WithWorkers(0)),
	}
}

func indexOptions(walDir string) []sdquery.SDOption {
	opts := []sdquery.SDOption{sdquery.WithShards(0), sdquery.WithWorkers(0)}
	if walDir != "" {
		opts = append(opts, sdquery.WithWAL(walDir),
			sdquery.WithSyncPolicy(sdquery.SyncAlways),
			sdquery.WithSyncInterval(100*time.Millisecond))
	}
	return opts
}

// listener is one HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

// listen serves the handler mk builds for the listener's URL, so that a
// wrapper can name what it wraps.
func listen(mk func(url string) http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	l.hs = &http.Server{Handler: mk(l.url)}
	go func() {
		defer close(l.done)
		if err := l.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// wrapper lets a traced run put its span recorder around a handler.
type wrapper func(layer, url string, srv *serve.Server, h http.Handler) http.Handler

func wrapped(wrap wrapper, layer string, srv *serve.Server, h http.Handler) func(url string) http.Handler {
	return func(url string) http.Handler {
		if wrap == nil {
			return h
		}
		return wrap(layer, url, srv, h)
	}
}

// hooks are what a run may put into a deployment it starts; each is
// optional.
type hooks struct {
	wrap      wrapper           // around every node's and the router's handler
	transport http.RoundTripper // the router's, to the nodes
	// index, if set, gives each leader's server the index it returns in
	// place of the leader's ShardedIndex.
	index func(*sdquery.ShardedIndex) serve.Index
}

// node is one serve.Server on a loopback port.
type node struct {
	*listener
	srv *serve.Server
	idx *sdquery.ShardedIndex // nil on followers (the server owns theirs)
}

func startNode(srv *serve.Server, idx *sdquery.ShardedIndex, layer string, wrap wrapper) (*node, error) {
	l, err := listen(wrapped(wrap, layer, srv, srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &node{listener: l, srv: srv, idx: idx}, nil
}

func (n *node) close() {
	n.listener.close()
	n.srv.Close()
	if n.idx != nil {
		n.idx.Close()
	}
}

// stack is one running deployment of a workload.
type stack struct {
	entry     string  // URL the clients send to: the router or the single node
	leaders   []*node // one per partition
	followers []*node // cluster only, followers[i] follows leaders[i]
	rt        *router.Router
	rl        *listener // the router's
	walDir    string
	buildS    float64 // seconds spent in index construction
}

// startStack builds the indexes over rows (row i has ID i) and brings the
// deployment up until its entry point answers /healthz; the returned
// duration is the set-up time.
func startStack(w workload, rows [][]float64, walDir string, hk hooks) (*stack, time.Duration, error) {
	t0 := time.Now()
	st := &stack{walDir: walDir}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	parts := 1
	if w.cluster {
		parts = 2
	}
	for p := 0; p < parts; p++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(walDir, fmt.Sprintf("p%d", p))
		}
		b0 := time.Now()
		var idx *sdquery.ShardedIndex
		var err error
		if parts == 1 {
			idx, err = sdquery.NewShardedIndex(rows, roles, indexOptions(dir)...)
		} else {
			// Rows are dealt round-robin over the partitions. Reads consult
			// every partition, and the benchmark deletes only rows it
			// inserted through the router, so placement never matters.
			var prow [][]float64
			var pids []int
			for id := p; id < len(rows); id += parts {
				prow = append(prow, rows[id])
				pids = append(pids, id)
			}
			idx, err = sdquery.NewShardedIndexWithIDs(prow, pids, roles, indexOptions(dir)...)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("build partition %d: %w", p, err)
		}
		st.buildS += time.Since(b0).Seconds()
		var si serve.Index = idx
		if hk.index != nil {
			si = hk.index(idx)
		}
		n, err := startNode(serve.New(si, nodeOptions()...), idx, "leader", hk.wrap)
		if err != nil {
			idx.Close()
			return nil, 0, err
		}
		st.leaders = append(st.leaders, n)
	}
	if w.cluster {
		var cfg router.Config
		for p, l := range st.leaders {
			// NewFollower returns once the follower has loaded the leader's
			// snapshot, so a started follower is caught up.
			fs, err := serve.NewFollower(l.url, append(nodeOptions(), serve.WithFollowInterval(200*time.Millisecond))...)
			if err != nil {
				return nil, 0, fmt.Errorf("follower %d: %w", p, err)
			}
			f, err := startNode(fs, nil, "follower", hk.wrap)
			if err != nil {
				fs.Close()
				return nil, 0, err
			}
			st.followers = append(st.followers, f)
			cfg.Partitions = append(cfg.Partitions, router.Partition{
				Name: fmt.Sprintf("p%d", p), Leader: l.url, Replicas: []string{f.url},
			})
		}
		cfg.Transport = hk.transport
		rt, err := router.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		st.rt = rt
		if st.rl, err = listen(wrapped(hk.wrap, "router", nil, rt.Handler())); err != nil {
			return nil, 0, err
		}
		st.entry = st.rl.url
	} else {
		st.entry = st.leaders[0].url
	}
	if err := waitHealthy(st.entry); err != nil {
		return nil, 0, err
	}
	ok = true
	return st, time.Since(t0), nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy (last error %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// indexes returns the partition leaders' indexes.
func (st *stack) indexes() []*sdquery.ShardedIndex {
	out := make([]*sdquery.ShardedIndex, len(st.leaders))
	for i, l := range st.leaders {
		out[i] = l.idx
	}
	return out
}

// nodes returns every serving node, leaders first.
func (st *stack) nodes() []*node {
	return append(append([]*node(nil), st.leaders...), st.followers...)
}

// waitCaughtUp waits until every follower has applied its leader's log.
func (st *stack) waitCaughtUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for i, f := range st.followers {
		for {
			ls := st.leaders[i].srv.Statz().ReplLSNs
			fs := f.srv.Statz().ReplLSNs
			ok := len(ls) > 0 && len(ls) == len(fs)
			for j := range ls {
				ok = ok && fs[j] >= ls[j]
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower %d never caught up (leader %v, follower %v)", i, ls, fs)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// close stops the router, then the followers, then the leaders, and removes
// the write-ahead logs.
func (st *stack) close() {
	if st.rl != nil {
		st.rl.close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, f := range st.followers {
		f.close()
	}
	for _, l := range st.leaders {
		l.close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}
