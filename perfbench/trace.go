package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
	"repro/serve"
)

// Tracing. A traced run records a span around every call into a layer's
// public entry point: the client's HTTP request, the router's Handler, each
// node's serve.Server.Handler().ServeHTTP, and each call a leader's server
// makes into its ShardedIndex. Spans of one request share a trace id and
// name their parent; the id travels in traceHeader from the client to the
// router, and from the router to the nodes through a RoundTripper that reads
// it from the forwarded request's context. The coalescer answers several
// requests with one BatchTopKContext call, and writes reach the index
// without a context, so those engine spans start traces of their own; a
// batch's span records how many queries it answered. Spans stay in memory
// and are written out as JSON lines when the run ends.

const traceHeader = "X-Perfbench-Span"

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"` // client, router, leader, follower, sdquery
	Op     string `json:"op"`    // read, insert, remove
	Node   string `json:"node,omitempty"`
	Query  int    `json:"query"`           // query index of a read, -1 otherwise
	Hit    bool   `json:"hit,omitempty"`   // a node read answered from the result cache
	Batch  int    `json:"batch,omitempty"` // queries an engine read answered
	Start  int64  `json:"start_ns"`        // since the tracer started
	End    int64  `json:"end_ns"`
	OK     bool   `json:"ok"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) ref() spanRef { return spanRef{trace: s.Trace, id: s.ID, query: s.Query} }

// spanRef is what a child needs to know about its parent.
type spanRef struct {
	trace, id uint64
	query     int
}

func (r spanRef) String() string { return fmt.Sprintf("%d:%d:%d", r.trace, r.id, r.query) }

func parseRef(h string) (spanRef, bool) {
	f := strings.Split(h, ":")
	if len(f) != 3 {
		return spanRef{}, false
	}
	t, err1 := strconv.ParseUint(f[0], 10, 64)
	id, err2 := strconv.ParseUint(f[1], 10, 64)
	q, err3 := strconv.Atoi(f[2])
	return spanRef{trace: t, id: id, query: q}, err1 == nil && err2 == nil && err3 == nil
}

type refKey struct{}

type tracer struct {
	epoch time.Time
	on    atomic.Bool // engine calls are traced while set
	ids   atomic.Uint64
	qs    *querySet
	mu    sync.Mutex
	spans []*span
}

func newTracer(qs *querySet) *tracer { return &tracer{epoch: time.Now(), qs: qs} }

// start opens a span; a zero parent starts a new trace.
func (t *tracer) start(parent spanRef, layer, op, node string, query int) *span {
	id := t.ids.Add(1)
	s := &span{Trace: parent.trace, ID: id, Parent: parent.id, Layer: layer, Op: op, Node: node, Query: query}
	if s.Trace == 0 {
		s.Trace = id
	}
	s.Start = int64(time.Since(t.epoch))
	return s
}

func (t *tracer) end(s *span, ok bool) {
	s.End = int64(time.Since(t.epoch))
	s.OK = ok
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statusRecorder remembers the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func opOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodDelete:
		return "remove"
	case r.URL.Path == "/v1/insert":
		return "insert"
	}
	return "read"
}

// wrap is the traced run's wrapper: it records a span around the layer's
// handler for every request that carries traceHeader. Untraced requests
// (health probes, replication pulls) pass through. A node span of a read
// is marked as a cache hit when Server.ProbeCache finds the query cached
// just before the call.
func (t *tracer) wrap(layer, url string, srv *serve.Server, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseRef(r.Header.Get(traceHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		op := opOf(r)
		hit := false
		if srv != nil && op == "read" && parent.query >= 0 {
			hit = srv.ProbeCache(t.qs.get(parent.query).q)
		}
		s := t.start(parent, layer, op, url, parent.query)
		s.Hit = hit
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), refKey{}, s.ref())))
		t.end(s, rec.status == http.StatusOK)
	})
}

// traceTransport forwards the router's span to the nodes it calls.
type traceTransport struct{ base http.RoundTripper }

func (tt traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(refKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, ref.String())
	}
	return tt.base.RoundTrip(req)
}

// spanIndex is the index a traced run gives each leader's server. It embeds
// the leader's ShardedIndex, so the server finds every optional method it
// looks for, and records an sdquery span around each read and write the
// server sends it while the tracer is on.
type spanIndex struct {
	*sdquery.ShardedIndex
	tr *tracer
}

func (t *tracer) index(idx *sdquery.ShardedIndex) serve.Index {
	return &spanIndex{ShardedIndex: idx, tr: t}
}

// call runs f inside an sdquery span when the tracer is on. A read span
// under a traced request's context names that request's span as parent.
func (x *spanIndex) call(ctx context.Context, op string, batch int, f func() error) error {
	if !x.tr.on.Load() {
		return f()
	}
	parent, query := spanRef{}, -1
	if ref, ok := ctx.Value(refKey{}).(spanRef); ok {
		parent, query = ref, ref.query
	}
	s := x.tr.start(parent, "sdquery", op, "", query)
	s.Batch = batch
	err := f()
	x.tr.end(s, err == nil)
	return err
}

func (x *spanIndex) TopKContext(ctx context.Context, q sdquery.Query) (res []sdquery.Result, err error) {
	x.call(ctx, "read", 1, func() error {
		res, err = x.ShardedIndex.TopKContext(ctx, q)
		return err
	})
	return res, err
}

func (x *spanIndex) BatchTopKContext(ctx context.Context, qs []sdquery.Query) (res [][]sdquery.Result, err error) {
	x.call(ctx, "read", len(qs), func() error {
		res, err = x.ShardedIndex.BatchTopKContext(ctx, qs)
		return err
	})
	return res, err
}

func (x *spanIndex) Insert(p []float64) (id int, err error) {
	x.call(context.Background(), "insert", 0, func() error {
		id, err = x.ShardedIndex.Insert(p)
		return err
	})
	return id, err
}

func (x *spanIndex) InsertWithID(id int, p []float64) error {
	return x.call(context.Background(), "insert", 0, func() error {
		return x.ShardedIndex.InsertWithID(id, p)
	})
}

func (x *spanIndex) RemoveDurable(id int) (removed bool, err error) {
	x.call(context.Background(), "remove", 0, func() error {
		removed, err = x.ShardedIndex.RemoveDurable(id)
		return err
	})
	return removed, err
}

// durations returns the durations of the spans that pass keep, each as
// many times as the queries it answered: every query of a batch waited for
// the whole call.
func durations(spans []*span, keep func(*span) bool) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.OK && keep(s) {
			for i := 0; i < max(s.Batch, 1); i++ {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// selfTimes returns, for each span that passes keep, its duration minus the
// part of its interval that its children cover, and the longest child.
func selfTimes(spans []*span, keep func(*span) bool) (self, slowestChild []time.Duration) {
	children := make(map[uint64][]*span)
	for _, s := range spans {
		if s.Parent != 0 { // span ids are unique across traces
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if !s.OK || !keep(s) {
			continue
		}
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		slices.SortFunc(kids, func(a, b *span) int { return int(a.Start - b.Start) })
		var covered, longest time.Duration
		curS, curE := kids[0].Start, kids[0].End
		for _, k := range kids {
			longest = max(longest, k.dur())
			if k.Start > curE {
				covered += time.Duration(curE - curS)
				curS, curE = k.Start, k.End
			} else if k.End > curE {
				curE = k.End
			}
		}
		covered += time.Duration(curE - curS)
		self = append(self, s.dur()-covered)
		slowestChild = append(slowestChild, longest)
	}
	return self, slowestChild
}
