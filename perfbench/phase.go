package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	sdquery "repro"
)

// run holds what one benchmark run shares across its phases: the inputs and
// the live rows the benchmark has tracked through its own writes.
type run struct {
	w    workload
	seed int64
	qs   *querySet

	fresh   atomic.Int64  // next never-sent query index
	inserts atomic.Uint64 // next insertPoint index
	phases  uint64        // phases started, to give each its own streams

	mu    sync.Mutex
	live  map[int][]float64 // id → point of every row that should be live
	fifo  []int             // cluster-rw: ids the benchmark inserted, oldest first
	churn []churnRow        // rw-durable: the churned rows
	errs  int               // errors printed so far
}

// churnRow is one row rw-durable deletes and re-inserts: its point and the
// id it currently lives under (-1 once a write failed).
type churnRow struct {
	p  []float64
	id int
}

func newRun(w workload, seed int64, rows [][]float64) *run {
	r := &run{w: w, seed: seed, qs: newQuerySet(seed, w.zipf)}
	r.live = make(map[int][]float64, len(rows))
	for id, p := range rows {
		r.live[id] = p
	}
	if w.durable && !w.cluster {
		for id := int(uint64(seed) % churnShare); id < len(rows); id += churnShare {
			r.churn = append(r.churn, churnRow{p: rows[id], id: id})
		}
	}
	return r
}

func (r *run) logErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.errs < 5 {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
	r.errs++
}

// phase is one closed-loop measurement window.
type phase struct {
	t *httpTarget
	// dur is the window in which reads are measured. Read-only workloads
	// follow it with a single-client write probe of length probe.
	dur, probe time.Duration
	// checkEvery keeps every checkEvery-th read answer per client for the
	// oracle (0 keeps none), up to maxChecked per client.
	checkEvery int
	// tick, if set, runs every 50ms while the phase runs.
	tick func()
}

const maxChecked = 128

type answer struct {
	qi  int
	got []sdquery.Result
}

// sample is one operation's latency and when it completed, measured from
// the start of its window.
type sample struct{ at, d time.Duration }

// result is what a phase measured: the reads and writes of the read window,
// and the writes of the write probe.
type result struct {
	reads, writes, probe []sample
	readWall, probeWall  time.Duration
	attempted, failed    int
	answers              []answer
}

func (res *result) merge(o *result) {
	res.reads = append(res.reads, o.reads...)
	res.writes = append(res.writes, o.writes...)
	res.attempted += o.attempted
	res.failed += o.failed
	res.answers = append(res.answers, o.answers...)
}

// client is one closed-loop client: it sends its next operation only after
// the previous one has been answered.
type client struct {
	r     *run
	ph    *phase
	id    int
	start time.Time // of the window being measured
	res   result
	n     int // reads sent, for checkEvery
}

func (c *client) read(qi int) {
	rq := c.r.qs.get(qi)
	t0 := time.Now()
	got, err := c.ph.t.topk(qi, rq)
	d := time.Since(t0)
	c.res.attempted++
	if err != nil {
		c.res.failed++
		c.r.logErr(err)
		return
	}
	c.res.reads = append(c.res.reads, sample{at: time.Since(c.start), d: d})
	if c.ph.checkEvery > 0 && c.n%c.ph.checkEvery == 0 && len(c.res.answers) < maxChecked {
		c.res.answers = append(c.res.answers, answer{qi: qi, got: got})
	}
	c.n++
}

// write times one write and counts it.
func (c *client) write(op func() error) bool {
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	c.res.attempted++
	if err != nil {
		c.res.failed++
		c.r.logErr(err)
		return false
	}
	c.res.writes = append(c.res.writes, sample{at: time.Since(c.start), d: d})
	return true
}

func (c *client) insert(p []float64) (id int, ok bool) {
	ok = c.write(func() (err error) {
		id, err = c.ph.t.insert(p)
		return err
	})
	if ok {
		c.r.mu.Lock()
		c.r.live[id] = p
		c.r.mu.Unlock()
	}
	return id, ok
}

func (c *client) remove(id int) bool {
	ok := c.write(func() error { return c.ph.t.remove(id) })
	if ok {
		c.r.mu.Lock()
		delete(c.r.live, id)
		c.r.mu.Unlock()
	}
	return ok
}

// probe inserts a new point and deletes it again, leaving the live rows as
// they were.
func (c *client) probe() {
	var id int
	p := insertPoint(c.r.seed, c.r.inserts.Add(1))
	if c.write(func() (err error) {
		id, err = c.ph.t.insert(p)
		return err
	}) {
		c.write(func() error { return c.ph.t.remove(id) })
	}
}

// churn deletes the next churned row and inserts its point again under a
// new id, holding the live count constant.
func (c *client) churn(j int) {
	r := c.r
	row := r.churn[j] // only the writer client touches churn
	if row.id < 0 || !c.remove(row.id) {
		return
	}
	nid, ok := c.insert(row.p)
	if !ok {
		nid = -1
	}
	r.churn[j].id = nid
}

// mixedWrite alternates inserting a new point and deleting the oldest point
// the benchmark inserted.
func (c *client) mixedWrite(del bool) {
	r := c.r
	if del {
		r.mu.Lock()
		if len(r.fifo) > 0 {
			id := r.fifo[0]
			r.fifo = r.fifo[1:]
			r.mu.Unlock()
			c.remove(id)
			return
		}
		r.mu.Unlock()
	}
	if id, ok := c.insert(insertPoint(r.seed, r.inserts.Add(1))); ok {
		r.mu.Lock()
		r.fifo = append(r.fifo, id)
		r.mu.Unlock()
	}
}

// run sends the client's share of the workload's traffic until end. stream
// names the client's random streams within the run.
func (c *client) run(stream uint64, end time.Time) {
	r := c.r
	switch {
	case r.w.readOnly:
		next := r.readStream(stream)
		for time.Now().Before(end) {
			c.read(next())
		}
	case r.w.cluster:
		// Every clusterWriteEvery-th operation writes, from a seeded offset.
		del := false
		for op := rng(r.seed, streamMix, stream).IntN(clusterWriteEvery); time.Now().Before(end); op++ {
			if op%clusterWriteEvery != 0 {
				c.read(int(r.fresh.Add(1)))
				continue
			}
			c.mixedWrite(del)
			del = !del
		}
	case c.id == 0: // rw-durable's writer
		n := len(r.churn)
		for j := rng(r.seed, streamChurn, stream).IntN(n); time.Now().Before(end); j = (j + 1) % n {
			c.churn(j)
		}
	default: // rw-durable's reader
		for time.Now().Before(end) {
			c.read(int(r.fresh.Add(1)))
		}
	}
}

// execute runs the phase with the run's clients and returns what they
// measured.
func (r *run) execute(ph *phase) *result {
	tag := r.phases
	r.phases++
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{r: r, ph: ph, id: i}
	}
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		if ph.tick == nil {
			return
		}
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			ph.tick()
			select {
			case <-stopTick:
				return
			case <-tk.C:
			}
		}
	}()

	// Each window starts from a collected heap, so that every run meets its
	// GC cycles at the same points of the window.
	runtime.GC()
	start := time.Now()
	end := start.Add(ph.dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		c.start = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(uint64(c.id)|tag<<8, end)
		}(c)
	}
	wg.Wait()
	out := &result{readWall: time.Since(start)}
	if ph.probe > 0 {
		// A collection and a lead-in, not timed, let the read traffic's
		// after-effects settle before the probe is measured.
		runtime.GC()
		pc := &client{r: r, ph: ph, start: time.Now()}
		for time.Since(pc.start) < ph.probe/10 {
			pc.probe()
		}
		pc.res.writes = pc.res.writes[:0]
		pc.start = time.Now()
		for time.Since(pc.start) < ph.probe {
			pc.probe()
		}
		out.probeWall = time.Since(pc.start)
		out.probe, pc.res.writes = pc.res.writes, nil
		cs = append(cs, pc)
	}
	close(stopTick)
	<-tickDone
	for _, c := range cs {
		out.merge(&c.res)
	}
	return out
}

// readStream returns the read-only workloads' query sequence for a client:
// fresh queries, or Zipf draws over the fixed query set.
func (r *run) readStream(stream uint64) func() int {
	if r.w.zipf {
		return zipfStream(r.seed, stream)
	}
	return func() int { return int(r.fresh.Add(1)) }
}

// latencies returns the samples' latencies.
func latencies(s []sample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i, x := range s {
		out[i] = x.d
	}
	return out
}

// quantile returns the q-quantile of the durations in milliseconds: the
// order statistic at rank q·(n-1), rounded (0 for an empty sample).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return float64(s[int(math.Round(q*float64(len(s)-1)))]) / float64(time.Millisecond)
}
