package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
)

// Follower mode: a Server that mirrors a leader instead of owning writes.
// NewFollower bootstraps an index from the leader's /v1/repl/segment
// snapshots, serves reads from it exactly like any Server, and runs a pull
// loop that tails the leader's WAL to stay fresh:
//
//	poll:  GET /v1/repl/manifest          — leader position + source token
//	       GET /v1/repl/wal?shard&from    — per lagging shard; apply by LSN
//
// The apply path is crash recovery's: records at or below the shard's
// last-applied LSN are skipped, successors apply, anything else is a gap.
// That makes every pull idempotent — a retried or duplicated tail re-applies
// as a no-op — so the loop needs no careful exactly-once transport.
//
// Three events force a full re-bootstrap (fresh snapshots, atomically
// published with Server.Swap so in-flight reads finish on the old index):
// the leader's source token changes (restart or index swap — the LSN cursor
// may describe a different history), a /wal request answers 410 Gone (a
// checkpoint retired the range this follower still needs), or the apply
// itself reports ErrReplGap. Until the re-bootstrap succeeds the follower
// keeps serving its last good snapshot — stale but correct, and honestly
// labeled by the X-SD-Repl-Lsns freshness header on every response.
//
// Followers are read-only: /v1/insert, DELETE, and /v1/admin/swap answer
// 503 with a Retry-After header and an X-SD-Leader hint (the replication
// loop owns the index; a local write would fork it from the leader).

// followerState is the per-follower half of Server.
type followerState struct {
	leaderURL string
	client    *http.Client
	interval  time.Duration
	loadOpts  []sdquery.SDOption

	mu     sync.Mutex // guards source
	source string

	lag        atomic.Uint64 // sum over shards of leaderLSN − appliedLSN
	lastPull   atomic.Int64  // unix nanos of the last successful poll
	pulls      atomic.Uint64
	pullErrs   atomic.Uint64
	bootstraps atomic.Uint64 // re-bootstraps after the initial one

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// WithFollowInterval sets how often a follower polls its leader for new WAL
// records (default 200ms). Lower is fresher; each poll is one manifest GET
// plus one /wal GET per lagging shard.
func WithFollowInterval(d time.Duration) Option {
	return func(c *config) { c.followInterval = d }
}

// NewFollower builds a read-only Server mirroring the leader at leaderURL.
// It bootstraps synchronously (snapshots are fetched and loaded before
// NewFollower returns, so a returned follower is immediately serving) and
// then keeps itself fresh in the background until Close or Shutdown. All
// serving options apply as usual; WithLoadOptions supplies the runtime knobs
// for the replicated index, WithFollowInterval the poll cadence.
func NewFollower(leaderURL string, opts ...Option) (*Server, error) {
	var probe config
	for _, o := range opts {
		o(&probe)
	}
	f := &followerState{
		leaderURL: strings.TrimRight(leaderURL, "/"),
		client:    &http.Client{Timeout: 30 * time.Second},
		interval:  probe.followInterval,
		loadOpts:  probe.loadOpts,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if f.interval <= 0 {
		f.interval = 200 * time.Millisecond
	}
	// The leader may still be coming up (both nodes launched together); a
	// few paced attempts cover that without hiding a dead address for long.
	var idx Index
	var src string
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if idx, src, err = f.bootstrap(); err == nil {
			break
		}
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: follower bootstrap from %s: %w", f.leaderURL, err)
	}
	f.source = src
	s := New(idx, opts...)
	s.repl.Store(f)
	s.ownsIndex.Store(true)
	go s.followLoop(f)
	return s, nil
}

// Follower reports the leader URL this server follows ("" for a leader).
func (s *Server) Follower() string {
	f := s.repl.Load()
	if f == nil {
		return ""
	}
	return f.leaderURL
}

// Generation reports the node's cluster generation — the fencing token the
// promotion protocol moves forward (promote.go). 0 until the node has ever
// been promoted or demoted.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// ReplLag reports the follower's current replication lag in records (0 for
// a leader): the sum over shards of the leader's last-seen LSN minus the
// locally applied LSN.
func (s *Server) ReplLag() uint64 {
	f := s.repl.Load()
	if f == nil {
		return 0
	}
	return f.lag.Load()
}

// manifest fetches and validates the leader's replication manifest.
func (f *followerState) manifest() (replManifest, error) {
	resp, err := f.client.Get(f.leaderURL + "/v1/repl/manifest")
	if err != nil {
		return replManifest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return replManifest{}, fmt.Errorf("manifest: leader answered %d", resp.StatusCode)
	}
	var m replManifest
	if err := strictDecode(mustReadAll(resp.Body), &m); err != nil {
		return replManifest{}, fmt.Errorf("manifest: %w", err)
	}
	if m.Format != replFormat {
		return replManifest{}, fmt.Errorf("manifest: leader speaks %q, this follower %q", m.Format, replFormat)
	}
	if m.Shards < 1 || m.Shards != len(m.LSNs) {
		return replManifest{}, fmt.Errorf("manifest: %d shards with %d lsns", m.Shards, len(m.LSNs))
	}
	return m, nil
}

func mustReadAll(r io.Reader) []byte {
	data, err := io.ReadAll(io.LimitReader(r, maxBodyBytes))
	if err != nil {
		return nil
	}
	return data
}

// bootstrap pulls the leader's snapshot and assembles a serving index from it.
func (f *followerState) bootstrap() (Index, string, error) {
	m, err := f.manifest()
	if err != nil {
		return nil, "", err
	}
	if m.Shards != 1 {
		return nil, "", fmt.Errorf("manifest: leader exports %d snapshot streams; a follower reads exactly 1", m.Shards)
	}
	resp, err := f.client.Get(f.leaderURL + "/v1/repl/segment?shard=0")
	if err != nil {
		return nil, "", fmt.Errorf("segment: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, "", fmt.Errorf("segment: leader answered %d", resp.StatusCode)
	}
	if src := resp.Header.Get(headerReplSource); src != m.Source {
		// The leader swapped or restarted between the manifest and the
		// segment; the pair would mix histories. Caller retries.
		resp.Body.Close()
		return nil, "", fmt.Errorf("segment: leader source changed mid-bootstrap (%s → %s)", m.Source, src)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", fmt.Errorf("segment: %w", err)
	}
	idx, err := sdquery.NewFollowerIndex(bytes.NewReader(data), f.loadOpts...)
	if err != nil {
		return nil, "", err
	}
	return idx, m.Source, nil
}

// followLoop polls the leader until the server closes or the node is
// promoted. f is passed in rather than loaded from s.repl: the pointer can
// be swapped (demotion re-points it at a new followerState) and each loop
// must keep driving exactly the state it was started with.
func (s *Server) followLoop(f *followerState) {
	defer close(f.done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-t.C:
			if err := s.pullOnce(f); err != nil {
				f.pullErrs.Add(1)
			} else {
				f.pulls.Add(1)
				f.lastPull.Store(time.Now().UnixNano())
			}
		}
	}
}

// pullOnce advances the follower by one poll: fetch the leader's position,
// tail every lagging shard, update the lag gauge. Any gap signal ends in a
// re-bootstrap; any transport error is left for the next tick.
func (s *Server) pullOnce(f *followerState) error {
	m, err := f.manifest()
	if err != nil {
		return err
	}
	f.mu.Lock()
	src := f.source
	f.mu.Unlock()
	if m.Source != src {
		return s.rebootstrap(f)
	}
	ra, ok := s.Index().(replApplier)
	if !ok {
		return fmt.Errorf("serve: follower index lost its replication surface")
	}
	applied := ra.ShardLSNs()
	if len(applied) != len(m.LSNs) {
		return s.rebootstrap(f)
	}
	for si := range applied {
		// The leader caps each /wal response, so one poll may take several
		// pulls to reach the manifest position; loop until caught up to the
		// position this poll observed (the leader moving further meanwhile
		// is the next tick's work).
		for applied[si] < m.LSNs[si] {
			resp, err := f.client.Get(fmt.Sprintf("%s/v1/repl/wal?shard=%d&from=%d", f.leaderURL, si, applied[si]))
			if err != nil {
				return err
			}
			if resp.StatusCode == http.StatusGone {
				resp.Body.Close()
				return s.rebootstrap(f)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				return fmt.Errorf("wal shard %d: leader answered %d", si, resp.StatusCode)
			}
			if src := resp.Header.Get(headerReplSource); src != m.Source {
				resp.Body.Close()
				return s.rebootstrap(f)
			}
			n, err := ra.ApplyReplWAL(si, resp.Body)
			resp.Body.Close()
			if errors.Is(err, sdquery.ErrReplGap) {
				return s.rebootstrap(f)
			}
			if err != nil {
				return err
			}
			if n == 0 {
				// No forward progress; leave the rest for the next tick
				// rather than spin.
				break
			}
			applied[si] = ra.ShardLSNs()[si]
		}
	}
	var lag uint64
	applied = ra.ShardLSNs()
	for si := range m.LSNs {
		if si < len(applied) && m.LSNs[si] > applied[si] {
			lag += m.LSNs[si] - applied[si]
		}
	}
	f.lag.Store(lag)
	return nil
}

// rebootstrap replaces the follower's index with a fresh snapshot set. The
// swap is the same atomic publication /v1/admin/swap uses, so readers never
// observe a torn index; the displaced index only has its worker pool to
// release (follower indexes own no WAL).
func (s *Server) rebootstrap(f *followerState) error {
	idx, src, err := f.bootstrap()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.source = src
	f.mu.Unlock()
	old := s.Swap(idx)
	if c, ok := old.(closer); ok && old != idx {
		c.Close()
	}
	f.bootstraps.Add(1)
	return nil
}

// stop ends the pull loop and waits for it.
func (f *followerState) stop() {
	f.stopOnce.Do(func() { close(f.quit) })
	<-f.done
}
